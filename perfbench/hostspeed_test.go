package main

import (
	"math"
	"testing"
)

func TestFactor(t *testing.T) {
	probes := func(xs ...float64) *hostSpeed { // in units of refNominal
		h := &hostSpeed{}
		for _, x := range xs {
			h.probes = append(h.probes, x*refNominal)
		}
		return h
	}
	for _, c := range []struct {
		name string
		h    *hostSpeed
		want float64
	}{
		// At the nominal speed a host second is a reference second.
		{"nominal", probes(1, 1, 1), 1},
		// At half speed the program and the probe both take twice as
		// long: 2 host seconds are 1 reference second.
		{"half speed", probes(2, 2, 2), 0.5},
		// The median: one slow read does not move the estimate.
		{"one slow probe", probes(2, 2, 9, 2, 2), 0.5},
	} {
		if k := c.h.factor(); math.Abs(k-c.want) > 1e-12 {
			t.Errorf("%s: factor = %v, want %v", c.name, k, c.want)
		}
	}
}
