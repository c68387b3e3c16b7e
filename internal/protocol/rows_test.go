package protocol

import (
	"fmt"
	"testing"

	"ppclust/internal/alphabet"
	"ppclust/internal/rng"
)

// rowRanges splits [0, rows) into contiguous ranges of per rows each — the
// shape of a pairwise chunk schedule.
func rowRanges(rows, per int) [][2]int {
	var out [][2]int
	for lo := 0; lo < rows; lo += per {
		hi := lo + per
		if hi > rows {
			hi = rows
		}
		out = append(out, [2]int{lo, hi})
	}
	if len(out) == 0 {
		out = [][2]int{{0, 0}}
	}
	return out
}

// TestNumericThirdPartyRowsMatchesMonolithic: evaluating a responder's S
// matrix chunk by chunk — every chunking, all three arithmetic variants,
// both masking modes, one shared jt stream per pair in schedule order —
// must reproduce the monolithic third-party evaluation bit for bit. This
// is the engine-level half of the chunked pairwise streaming guarantee;
// the session differential tests pin the wire-level half.
func TestNumericThirdPartyRowsMatchesMonolithic(t *testing.T) {
	const n, m = 13, 9 // initiator and responder counts
	s := rng.NewXoshiro(rng.SeedFromUint64(17))
	xs := make([]int64, n)
	ys := make([]int64, m)
	for i := range xs {
		xs[i] = rng.Int64Range(s, -500, 500)
	}
	for i := range ys {
		ys[i] = rng.Int64Range(s, -500, 500)
	}
	fx := make([]float64, n)
	fy := make([]float64, m)
	for i := range fx {
		fx[i] = rng.Float64(s) * 40
	}
	for i := range fy {
		fy[i] = rng.Float64(s) * 40
	}
	seedJK := rng.SeedFromUint64(31)
	seedJT := rng.SeedFromUint64(32)
	e := NewEngine(2)

	for _, mode := range []Mode{Batch, PerPair} {
		rows := 0
		if mode == PerPair {
			rows = m
		}
		dI, err := e.NumericInitiatorInt(xs, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), DefaultIntParams, mode, rows)
		if err != nil {
			t.Fatal(err)
		}
		sI, err := e.NumericResponderInt(dI, ys, rng.NewAESCTR(seedJK), DefaultIntParams, mode)
		if err != nil {
			t.Fatal(err)
		}
		wantI, err := e.NumericThirdPartyInt(sI, rng.NewAESCTR(seedJT), DefaultIntParams, mode)
		if err != nil {
			t.Fatal(err)
		}
		dF, err := e.NumericInitiatorFloat(fx, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), DefaultFloatParams, mode, rows)
		if err != nil {
			t.Fatal(err)
		}
		sF, err := e.NumericResponderFloat(dF, fy, rng.NewAESCTR(seedJK), DefaultFloatParams, mode)
		if err != nil {
			t.Fatal(err)
		}
		wantF, err := e.NumericThirdPartyFloat(sF, rng.NewAESCTR(seedJT), DefaultFloatParams, mode)
		if err != nil {
			t.Fatal(err)
		}
		dM, err := e.NumericInitiatorModP(xs, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), mode, rows)
		if err != nil {
			t.Fatal(err)
		}
		sM, err := e.NumericResponderModP(dM, ys, rng.NewAESCTR(seedJK), mode)
		if err != nil {
			t.Fatal(err)
		}
		wantM, err := e.NumericThirdPartyModP(sM, rng.NewAESCTR(seedJT), mode)
		if err != nil {
			t.Fatal(err)
		}

		for _, per := range []int{1, 4, m} {
			name := fmt.Sprintf("%v/per=%d", mode, per)
			jtI := rng.NewAESCTR(seedJT)
			jtF := rng.NewAESCTR(seedJT)
			jtM := rng.NewAESCTR(seedJT)
			for _, ch := range rowRanges(m, per) {
				lo, hi := ch[0], ch[1]
				cI := &Int64Matrix{Rows: hi - lo, Cols: n, Cell: sI.Cell[lo*n : hi*n]}
				gI, err := e.NumericThirdPartyIntRows(cI, lo, hi, jtI, DefaultIntParams, mode)
				if err != nil {
					t.Fatal(err)
				}
				cF := &Float64Matrix{Rows: hi - lo, Cols: n, Cell: sF.Cell[lo*n : hi*n]}
				gF, err := e.NumericThirdPartyFloatRows(cF, lo, hi, jtF, DefaultFloatParams, mode)
				if err != nil {
					t.Fatal(err)
				}
				cM := &ElementMatrix{Rows: hi - lo, Cols: n, Cell: sM.Cell[lo*n : hi*n]}
				gM, err := e.NumericThirdPartyModPRows(cM, lo, hi, jtM, mode)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < (hi-lo)*n; i++ {
					if gI.Cell[i] != wantI.Cell[lo*n+i] {
						t.Fatalf("%s: int chunk [%d,%d) differs at %d", name, lo, hi, i)
					}
					if gF.Cell[i] != wantF.Cell[lo*n+i] {
						t.Fatalf("%s: float chunk [%d,%d) differs at %d", name, lo, hi, i)
					}
					if gM.Cell[i] != wantM.Cell[lo*n+i] {
						t.Fatalf("%s: modp chunk [%d,%d) differs at %d", name, lo, hi, i)
					}
				}
			}
		}
	}
}

// TestAlphaThirdPartyRowsMatchesMonolithic: chunked CCM decoding + edit
// distance over row ranges of the intermediary block must reproduce the
// monolithic Figure 10 evaluation, including with variable-length strings
// (the per-chunk mask prefix is a prefix of the monolithic one).
func TestAlphaThirdPartyRowsMatchesMonolithic(t *testing.T) {
	a := alphabet.DNA
	s := rng.NewXoshiro(rng.SeedFromUint64(23))
	mkStrings := func(count int) []SymbolString {
		out := make([]SymbolString, count)
		for i := range out {
			str := make(SymbolString, 2+rng.Symbol(s, 7))
			for j := range str {
				str[j] = alphabet.Symbol(rng.Symbol(s, a.Size()))
			}
			out[i] = str
		}
		return out
	}
	own := mkStrings(11)   // responder strings: block rows
	their := mkStrings(14) // initiator strings: block columns
	seedJT := rng.SeedFromUint64(77)
	e := NewEngine(2)

	disguised := e.AlphaInitiator(their, a, rng.NewAESCTR(seedJT))
	block := e.AlphaResponder(own, disguised, a)
	want, err := e.AlphaThirdParty(block, a, rng.NewAESCTR(seedJT))
	if err != nil {
		t.Fatal(err)
	}
	for _, per := range []int{1, 3, len(own)} {
		jt := rng.NewAESCTR(seedJT)
		for _, ch := range rowRanges(len(own), per) {
			lo, hi := ch[0], ch[1]
			got, err := e.AlphaThirdPartyRows(block[lo:hi], lo, hi, a, jt)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < (hi-lo)*len(their); i++ {
				if got.Cell[i] != want.Cell[lo*len(their)+i] {
					t.Fatalf("per=%d: alpha chunk [%d,%d) differs at %d", per, lo, hi, i)
				}
			}
		}
	}
}

// TestAdvanceThirdPartyPositionsStream: after AdvanceThirdParty* consumes
// the masks of the first lo rows, evaluating only rows [lo, m) must
// reproduce exactly those rows of the monolithic evaluation — the
// property a TP shard whose row range starts mid-block relies on. In
// Batch mode the advance is a no-op and full evaluation still matches.
func TestAdvanceThirdPartyPositionsStream(t *testing.T) {
	const n, m = 11, 10
	s := rng.NewXoshiro(rng.SeedFromUint64(41))
	xs := make([]int64, n)
	ys := make([]int64, m)
	for i := range xs {
		xs[i] = rng.Int64Range(s, -300, 300)
	}
	for i := range ys {
		ys[i] = rng.Int64Range(s, -300, 300)
	}
	fx := make([]float64, n)
	fy := make([]float64, m)
	for i := range fx {
		fx[i] = rng.Float64(s) * 25
	}
	for i := range fy {
		fy[i] = rng.Float64(s) * 25
	}
	seedJK := rng.SeedFromUint64(51)
	seedJT := rng.SeedFromUint64(52)
	e := NewEngine(2)

	for _, mode := range []Mode{Batch, PerPair} {
		rows := 0
		if mode == PerPair {
			rows = m
		}
		dI, err := e.NumericInitiatorInt(xs, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), DefaultIntParams, mode, rows)
		if err != nil {
			t.Fatal(err)
		}
		sI, err := e.NumericResponderInt(dI, ys, rng.NewAESCTR(seedJK), DefaultIntParams, mode)
		if err != nil {
			t.Fatal(err)
		}
		wantI, err := e.NumericThirdPartyInt(sI, rng.NewAESCTR(seedJT), DefaultIntParams, mode)
		if err != nil {
			t.Fatal(err)
		}
		dF, err := e.NumericInitiatorFloat(fx, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), DefaultFloatParams, mode, rows)
		if err != nil {
			t.Fatal(err)
		}
		sF, err := e.NumericResponderFloat(dF, fy, rng.NewAESCTR(seedJK), DefaultFloatParams, mode)
		if err != nil {
			t.Fatal(err)
		}
		wantF, err := e.NumericThirdPartyFloat(sF, rng.NewAESCTR(seedJT), DefaultFloatParams, mode)
		if err != nil {
			t.Fatal(err)
		}
		dM, err := e.NumericInitiatorModP(xs, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), mode, rows)
		if err != nil {
			t.Fatal(err)
		}
		sM, err := e.NumericResponderModP(dM, ys, rng.NewAESCTR(seedJK), mode)
		if err != nil {
			t.Fatal(err)
		}
		wantM, err := e.NumericThirdPartyModP(sM, rng.NewAESCTR(seedJT), mode)
		if err != nil {
			t.Fatal(err)
		}

		for _, lo := range []int{0, 1, 4, m - 1} {
			name := fmt.Sprintf("%v/lo=%d", mode, lo)
			jtI := rng.NewAESCTR(seedJT)
			jtF := rng.NewAESCTR(seedJT)
			jtM := rng.NewAESCTR(seedJT)
			e.AdvanceThirdPartyInt(jtI, lo, n, DefaultIntParams, mode)
			e.AdvanceThirdPartyFloat(jtF, lo, n, DefaultFloatParams, mode)
			e.AdvanceThirdPartyModP(jtM, lo, n, mode)
			for _, ch := range rowRanges(m-lo, 3) {
				clo, chi := lo+ch[0], lo+ch[1]
				cI := &Int64Matrix{Rows: chi - clo, Cols: n, Cell: sI.Cell[clo*n : chi*n]}
				gI, err := e.NumericThirdPartyIntRows(cI, clo, chi, jtI, DefaultIntParams, mode)
				if err != nil {
					t.Fatal(err)
				}
				cF := &Float64Matrix{Rows: chi - clo, Cols: n, Cell: sF.Cell[clo*n : chi*n]}
				gF, err := e.NumericThirdPartyFloatRows(cF, clo, chi, jtF, DefaultFloatParams, mode)
				if err != nil {
					t.Fatal(err)
				}
				cM := &ElementMatrix{Rows: chi - clo, Cols: n, Cell: sM.Cell[clo*n : chi*n]}
				gM, err := e.NumericThirdPartyModPRows(cM, clo, chi, jtM, mode)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < (chi-clo)*n; i++ {
					if gI.Cell[i] != wantI.Cell[clo*n+i] {
						t.Fatalf("%s: int rows [%d,%d) differ at %d", name, clo, chi, i)
					}
					if gF.Cell[i] != wantF.Cell[clo*n+i] {
						t.Fatalf("%s: float rows [%d,%d) differ at %d", name, clo, chi, i)
					}
					if gM.Cell[i] != wantM.Cell[clo*n+i] {
						t.Fatalf("%s: modp rows [%d,%d) differ at %d", name, clo, chi, i)
					}
				}
			}
		}
	}
}

// TestThirdPartyRowsShapeValidation: a chunk whose matrix does not cover
// exactly the scheduled row range is rejected with a descriptive error.
func TestThirdPartyRowsShapeValidation(t *testing.T) {
	e := NewEngine(1)
	jt := rng.NewAESCTR(rng.SeedFromUint64(1))
	chunk := NewInt64Matrix(2, 3)
	if _, err := e.NumericThirdPartyIntRows(chunk, 0, 3, jt, DefaultIntParams, Batch); err == nil {
		t.Fatal("short chunk accepted")
	}
	if _, err := e.NumericThirdPartyIntRows(chunk, 3, 1, jt, DefaultIntParams, Batch); err == nil {
		t.Fatal("inverted range accepted")
	}
	fchunk := NewFloat64Matrix(2, 3)
	if _, err := e.NumericThirdPartyFloatRows(fchunk, 0, 1, jt, DefaultFloatParams, Batch); err == nil {
		t.Fatal("float short chunk accepted")
	}
	mchunk := NewElementMatrix(2, 3)
	if _, err := e.NumericThirdPartyModPRows(mchunk, 0, 1, jt, Batch); err == nil {
		t.Fatal("modp short chunk accepted")
	}
	if _, err := e.AlphaThirdPartyRows(make([][]*SymbolMatrix, 2), 0, 1, alphabet.DNA, jt); err == nil {
		t.Fatal("alpha short chunk accepted")
	}
}
