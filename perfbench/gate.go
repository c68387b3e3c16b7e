package main

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"ppclust/internal/dissim"
	"ppclust/internal/party"
)

// matrixTol is the float64 variant's tolerance against the centralized
// plaintext matrices, as the party package's accuracy tests pin it.
const matrixTol = 1e-9

// digest is a hash of every holder's published result, in holder order.
func digest(results map[string]*party.Result) (string, error) {
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	enc := gob.NewEncoder(h)
	for _, n := range names {
		if results[n] == nil {
			return "", fmt.Errorf("holder %s published no result", n)
		}
		if err := enc.Encode(n); err != nil {
			return "", err
		}
		if err := enc.Encode(results[n]); err != nil {
			return "", fmt.Errorf("hashing %s's result: %w", n, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// gate runs one session, checks the third party's attribute matrices
// against the centralized plaintext baseline and returns the digest every
// later session must reproduce.
func gate(r *rig) (string, *party.TPReport, error) {
	out, err := r.session(true)
	if err != nil {
		return "", nil, fmt.Errorf("gate session: %w", err)
	}
	if len(out.results) != len(r.w.holders) {
		return "", nil, fmt.Errorf("gate session: %d of %d holders got results", len(out.results), len(r.w.holders))
	}
	want, scales, err := party.CentralizedMatrices(r.w.schema, r.parts)
	if err != nil {
		return "", nil, err
	}
	if err := checkReport(out.report, want, scales); err != nil {
		return "", nil, err
	}
	d, err := digest(out.results)
	return d, out.report, err
}

func checkReport(rep *party.TPReport, want []*dissim.Matrix, scales []float64) error {
	if rep == nil || len(rep.AttributeMatrices) != len(want) {
		return fmt.Errorf("gate: report has the wrong attribute count")
	}
	for a, m := range rep.AttributeMatrices {
		d, err := m.MaxDifference(want[a])
		if err != nil {
			return fmt.Errorf("gate: attribute %d: %w", a, err)
		}
		if d > matrixTol {
			return fmt.Errorf("gate: attribute %d deviates from the centralized matrix by %g (tolerance %g)", a, d, matrixTol)
		}
		if s := rep.Scales[a]; math.Abs(s-scales[a]) > matrixTol*scales[a] {
			return fmt.Errorf("gate: attribute %d scale %g, centralized %g", a, s, scales[a])
		}
	}
	return nil
}
