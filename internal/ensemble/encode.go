package ensemble

import (
	"encoding/json"
	"fmt"
	"os"

	"fsml/internal/core"
	"fsml/internal/fsatomic"
	"fsml/internal/ml"
)

// EnsembleFormat tags serialized ensembles. Unlike the single-detector
// format the version rides in the tag itself: the format is new enough
// that there is no legacy shape to stay compatible with.
const EnsembleFormat = "fsml-ensemble-v1"

// ensembleFile is the serialized ensemble shape.
type ensembleFile struct {
	Format        string         `json:"format"`
	Classes       []string       `json:"classes"`
	Attrs         []string       `json:"attrs"`
	Members       []memberFile   `json:"members"`
	BaseTree      *ml.Tree       `json:"base_tree"`
	BaseTrainedOn map[string]int `json:"base_trained_on,omitempty"`
	BaseWeight    float64        `json:"base_weight"`
}

// memberFile is one serialized committee member.
type memberFile struct {
	Class  string   `json:"class"`
	Weight float64  `json:"weight"`
	Tree   *ml.Tree `json:"tree"`
}

// EnsembleFormatError reports serialized bytes this build cannot decode
// as an ensemble — an unknown or missing format tag. Typed so loaders
// (the CLI's -model flag, the serving registry) can distinguish a stale
// or foreign file from I/O failure.
type EnsembleFormatError struct {
	// Format is the tag found in the file ("" when absent).
	Format string
}

func (e *EnsembleFormatError) Error() string {
	return fmt.Sprintf("ensemble: not an ensemble model (format %q, want %q); retrain with `fsml train -ensemble -o <file>`", e.Format, EnsembleFormat)
}

// Encode serializes the ensemble to JSON.
func (d *Detector) Encode() ([]byte, error) {
	f := ensembleFile{
		Format:     EnsembleFormat,
		Classes:    d.Classes,
		Attrs:      d.Attrs,
		BaseTree:   d.Base.Tree,
		BaseWeight: d.BaseWeight,
	}
	f.BaseTrainedOn = d.Base.TrainedOn
	for _, m := range d.Members {
		f.Members = append(f.Members, memberFile{Class: m.Class, Weight: m.Weight, Tree: m.Detector.Tree})
	}
	return json.MarshalIndent(f, "", "  ")
}

// Decode parses a serialized ensemble, compiling (and so validating)
// every member tree and checking that the committee can vote (see
// bind). Unknown formats surface as *EnsembleFormatError.
func Decode(data []byte) (*Detector, error) {
	var f ensembleFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("ensemble: decoding: %w", err)
	}
	if f.Format != EnsembleFormat {
		return nil, &EnsembleFormatError{Format: f.Format}
	}
	if len(f.Classes) < 2 {
		return nil, fmt.Errorf("ensemble: model names %d class(es), want >= 2", len(f.Classes))
	}
	if len(f.Members) == 0 {
		return nil, fmt.Errorf("ensemble: model has no committee members")
	}
	base, err := core.NewDetector(f.BaseTree, f.BaseTrainedOn)
	if err != nil {
		return nil, fmt.Errorf("ensemble: base member: %w", err)
	}
	det := &Detector{
		Classes:     f.Classes,
		Attrs:       f.Attrs,
		Base:        base,
		BaseClasses: base.FlatTree().Classes,
		BaseWeight:  f.BaseWeight,
	}
	for i, m := range f.Members {
		member, err := core.NewDetector(m.Tree, nil)
		if err != nil {
			return nil, fmt.Errorf("ensemble: member %d (%s): %w", i, m.Class, err)
		}
		det.Members = append(det.Members, Member{Class: m.Class, Detector: member, Weight: m.Weight})
	}
	if err := det.bind(); err != nil {
		return nil, err
	}
	return det, nil
}

// SaveFile atomically writes the serialized ensemble to path.
func (d *Detector) SaveFile(path string) error {
	blob, err := d.Encode()
	if err != nil {
		return err
	}
	return fsatomic.WriteFile(path, blob, 0o644)
}

// LoadFile reads and decodes an ensemble model file.
func LoadFile(path string) (*Detector, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(blob)
}
