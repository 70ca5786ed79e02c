package trace

import (
	"bytes"
	"compress/gzip"
	"reflect"
	"strings"
	"testing"
)

// fuzzSeeds is the hand-picked corpus: valid traces (including ones
// produced by Write), near-valid mutations, and inputs that previously
// hit pathological paths (the lone-huge-tid allocation).
var fuzzSeeds = []string{
	"T0 E 10\n",
	"T0 L 0x40 x3\nT0 S 0x48\nT0 E 5\nT1 S 0x44 x2\nT1 B 7\n",
	"# comment only\nT0 E 1 # trailing\n\n",
	"T0 L 64\nT0 S 0x40\n",
	"T1 E 1\n",                 // missing T0
	"T0 E 1\nT2 E 1\n",         // gap at T1
	"T999999999 E 1\n",         // huge tid: must error, not allocate
	"T0 L 0x40 x0\n",           // zero repeat
	"T0 E -3\n",                // negative count
	"T0 X 1\n",                 // unknown kind
	"T0 LL 0x40\n",             // two-byte kind
	"T-1 E 1\n",                // negative tid
	"T0 L zz\n",                // bad address
	"T0 L 0X1F40\nT0 S 0X40\n", // uppercase hex prefix (regression)
	"T0 L 0X\n",                // prefix with no digits
	"T0 L\n",                   // short line
	"",                         // empty input
	"T0 L 0xffffffffffffffff\nT0 E 2147483647\n",
	strings.Repeat("T0 E 1\n", 100),
}

// FuzzParseTrace throws arbitrary bytes at the parser. Invariants: no
// panic and no runaway allocation on any input; on accepted input the
// trace survives a Write/Parse round trip bit-identically, every thread
// has at least one op, and every op carries a positive count.
func FuzzParseTrace(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	// Round-trip outputs of Write are first-class corpus members too.
	var rt bytes.Buffer
	t0, err := Parse(strings.NewReader(fuzzSeeds[1]))
	if err != nil {
		f.Fatal(err)
	}
	if err := Write(&rt, t0); err != nil {
		f.Fatal(err)
	}
	f.Add(rt.Bytes())

	// Gzip edge cases: a clean single member, a truncated member (crashed
	// writer), and trailing garbage after a complete member. The latter
	// two must be rejected, never panic or hang.
	var gzbuf bytes.Buffer
	gw := gzip.NewWriter(&gzbuf)
	if _, err := gw.Write([]byte(fuzzSeeds[1])); err != nil {
		f.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		f.Fatal(err)
	}
	member := gzbuf.Bytes()
	f.Add(append([]byte(nil), member...))
	f.Add(append([]byte(nil), member[:len(member)/2]...))
	f.Add(append(append([]byte(nil), member...), 0x00, 0xde, 0xad))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Parse(bytes.NewReader(data))
		if err != nil {
			return // rejected input: only panics/hangs are failures here
		}
		if tr.NumThreads() == 0 {
			t.Fatalf("accepted trace with zero threads")
		}
		for tid, ops := range tr.Threads {
			if len(ops) == 0 {
				t.Fatalf("thread %d accepted with no ops", tid)
			}
			for _, op := range ops {
				if op.N <= 0 {
					t.Fatalf("thread %d has op with non-positive count: %+v", tid, op)
				}
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("writing accepted trace: %v", err)
		}
		tr2, err := Parse(&buf)
		if err != nil {
			t.Fatalf("reparsing written trace: %v\ntrace:\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(tr.Threads, tr2.Threads) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", tr2.Threads, tr.Threads)
		}
	})
}

// TestParseHugeTidNoAlloc pins the allocation fix: a single event with a
// huge thread id must produce the contiguity error without sizing any
// structure by the id.
func TestParseHugeTidNoAlloc(t *testing.T) {
	_, err := Parse(strings.NewReader("T999999999 E 1\n"))
	if err == nil {
		t.Fatal("huge lone tid accepted")
	}
	if want := "trace: thread ids not contiguous: T0 missing"; err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
}
