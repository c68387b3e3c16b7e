package dissim

import (
	"math"
	"strings"
	"testing"
)

// TestRowChunksInvariants: every schedule covers [0, n) contiguously with
// non-empty chunks (except the single degenerate chunk of n <= 1), each
// chunk stays within maxCells unless a single row alone exceeds it, and
// sender and receiver derive the identical schedule from (n, maxCells).
func TestRowChunksInvariants(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 64, 100, 257} {
		for _, maxCells := range []int{1, 7, 64, 511, 4096, 1 << 30} {
			chunks := RowChunks(n, maxCells)
			if len(chunks) == 0 {
				t.Fatalf("n=%d maxCells=%d: empty schedule", n, maxCells)
			}
			next := 0
			for ci, ch := range chunks {
				lo, hi := ch[0], ch[1]
				if lo != next {
					t.Fatalf("n=%d maxCells=%d: chunk %d starts at %d, want %d", n, maxCells, ci, lo, next)
				}
				if hi < lo || hi > n {
					t.Fatalf("n=%d maxCells=%d: chunk %d = [%d,%d) out of range", n, maxCells, ci, lo, hi)
				}
				if hi == lo && n > 0 {
					t.Fatalf("n=%d maxCells=%d: chunk %d empty", n, maxCells, ci)
				}
				cells := hi*(hi-1)/2 - lo*(lo-1)/2
				if cells > maxCells && hi-lo > 1 {
					t.Fatalf("n=%d maxCells=%d: chunk %d holds %d cells over %d rows", n, maxCells, ci, cells, hi-lo)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d maxCells=%d: schedule ends at %d", n, maxCells, next)
			}
		}
	}
	// Degenerate arguments normalize rather than panic.
	if got := RowChunks(-3, 0); len(got) != 1 || got[0] != [2]int{0, 0} {
		t.Fatalf("RowChunks(-3, 0) = %v", got)
	}
}

// chunkedInstall streams party p's local matrix into the assembler under
// the given schedule via SetLocalRows, using the same packed row views the
// wire path serializes.
func chunkedInstall(t *testing.T, a *Assembler, p int, local *Matrix, chunks [][2]int) {
	t.Helper()
	for _, ch := range chunks {
		if err := a.SetLocalRows(p, ch[0], ch[1], local.PackedRowsView(ch[0], ch[1])); err != nil {
			t.Fatalf("SetLocalRows(%d, %d, %d): %v", p, ch[0], ch[1], err)
		}
	}
}

// TestSetLocalRowsMatchesSetLocal is the property test of the streaming
// install: for every matrix size and every chunking — one row per chunk,
// a 4 KiB-of-cells bound, and the whole matrix in one chunk — the
// assembled cells and the Done-primed max are bit-identical to the
// monolithic SetLocal path.
func TestSetLocalRowsMatchesSetLocal(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 64} {
		sizes := []int{n, 5}
		locals := []*Matrix{
			FromLocal(n, func(i, j int) float64 { return synthDist(i, j) }),
			FromLocal(5, func(i, j int) float64 { return synthDist(i+2, j) + 0.5 }),
		}
		build := func(install func(a *Assembler, p int, local *Matrix)) *Matrix {
			a, err := NewAssembler(sizes)
			if err != nil {
				t.Fatal(err)
			}
			for p, local := range locals {
				install(a, p, local)
			}
			if err := a.SetCross(0, 1, func(m, nn int) float64 { return synthDist(m+7, nn) }); err != nil {
				t.Fatal(err)
			}
			g, err := a.Done()
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		want := build(func(a *Assembler, p int, local *Matrix) {
			if err := a.SetLocal(p, local); err != nil {
				t.Fatal(err)
			}
		})
		for _, maxCells := range []int{1, 4096 / 8, 1 << 30} {
			got := build(func(a *Assembler, p int, local *Matrix) {
				chunkedInstall(t, a, p, local, RowChunks(local.N(), maxCells))
			})
			if !got.EqualWithin(want, 0) {
				t.Fatalf("n=%d maxCells=%d: cells differ from SetLocal", n, maxCells)
			}
			if got.Max() != want.Max() {
				t.Fatalf("n=%d maxCells=%d: max %v vs SetLocal %v", n, maxCells, got.Max(), want.Max())
			}
		}
	}
}

// TestSetLocalRowsReinstallMarksMaxStale: overwriting rows with smaller
// values must leave Done with the true (rescanned) maximum, whether the
// overwrite is chunk-over-chunk, chunk-over-monolith, or monolith-over-
// chunks — mirroring TestAssemblerReinstallInvalidatesMax.
func TestSetLocalRowsReinstallMarksMaxStale(t *testing.T) {
	big := FromLocal(4, func(i, j int) float64 { return 10 })
	small := FromLocal(4, func(i, j int) float64 { return 4 })
	cross := func(m, n int) float64 { return 3 }
	chunks := RowChunks(4, 1)

	check := func(label string, first, second func(a *Assembler)) {
		a, err := NewAssembler([]int{4, 4})
		if err != nil {
			t.Fatal(err)
		}
		first(a)
		if err := a.SetLocal(1, small); err != nil {
			t.Fatal(err)
		}
		if err := a.SetCross(0, 1, cross); err != nil {
			t.Fatal(err)
		}
		second(a)
		if !a.maxStale {
			t.Fatalf("%s: re-install did not mark the max stale", label)
		}
		g, err := a.Done()
		if err != nil {
			t.Fatal(err)
		}
		if got := g.Max(); got != 4 {
			t.Fatalf("%s: max after overwrite = %v, want 4", label, got)
		}
	}
	check("rows over rows",
		func(a *Assembler) { chunkedInstall(t, a, 0, big, chunks) },
		func(a *Assembler) { chunkedInstall(t, a, 0, small, chunks) })
	check("rows over monolith",
		func(a *Assembler) {
			if err := a.SetLocal(0, big); err != nil {
				t.Fatal(err)
			}
		},
		func(a *Assembler) { chunkedInstall(t, a, 0, small, chunks) })
	check("monolith over rows",
		func(a *Assembler) { chunkedInstall(t, a, 0, big, chunks) },
		func(a *Assembler) {
			if err := a.SetLocal(0, small); err != nil {
				t.Fatal(err)
			}
		})
	// A duplicated chunk mid-stream (same values) is also an overwrite.
	a, err := NewAssembler([]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	chunkedInstall(t, a, 0, big, chunks)
	if err := a.SetLocalRows(0, 1, 2, big.PackedRowsView(1, 2)); err != nil {
		t.Fatal(err)
	}
	if !a.maxStale {
		t.Fatal("duplicate chunk did not mark the max stale")
	}
}

// TestSetLocalRowsValidation covers the error surface: bad party, bad
// ranges, wrong cell counts, non-finite and negative entries off the wire,
// and Done's row-exact incompleteness report.
func TestSetLocalRowsValidation(t *testing.T) {
	a, err := NewAssembler([]int{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetLocalRows(-1, 0, 0, nil); err == nil {
		t.Fatal("negative party accepted")
	}
	if err := a.SetLocalRows(2, 0, 0, nil); err == nil {
		t.Fatal("party out of range accepted")
	}
	if err := a.SetLocalRows(0, 2, 1, nil); err == nil {
		t.Fatal("inverted range accepted")
	}
	if err := a.SetLocalRows(0, 0, 5, make([]float64, 10)); err == nil {
		t.Fatal("range past n accepted")
	}
	if err := a.SetLocalRows(0, 1, 3, []float64{1}); err == nil {
		t.Fatal("short cell run accepted")
	}
	if err := a.SetLocalRows(0, 1, 2, []float64{math.NaN()}); err == nil {
		t.Fatal("NaN accepted")
	}
	if err := a.SetLocalRows(0, 1, 2, []float64{-1}); err == nil {
		t.Fatal("negative dissimilarity accepted")
	}
	if err := a.SetLocalRows(0, 1, 3, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Done(); err == nil || !strings.Contains(err.Error(), "rows missing") {
		t.Fatalf("partial rows not reported by Done: %v", err)
	}
}

// TestRectChunksInvariants: every pairwise schedule covers [0, rows)
// contiguously with non-empty chunks (except the single degenerate chunk
// of an empty responder), each chunk stays within maxCells unless a single
// row alone exceeds it, and both sides derive the identical schedule from
// (rows, cols, maxCells).
func TestRectChunksInvariants(t *testing.T) {
	for _, rows := range []int{0, 1, 2, 3, 17, 64, 257} {
		for _, cols := range []int{0, 1, 5, 64, 300} {
			for _, maxCells := range []int{1, 7, 64, 4096, 1 << 30} {
				chunks := RectChunks(rows, cols, maxCells)
				if len(chunks) == 0 {
					t.Fatalf("rows=%d cols=%d maxCells=%d: empty schedule", rows, cols, maxCells)
				}
				next := 0
				for ci, ch := range chunks {
					lo, hi := ch[0], ch[1]
					if lo != next {
						t.Fatalf("rows=%d cols=%d maxCells=%d: chunk %d starts at %d, want %d", rows, cols, maxCells, ci, lo, next)
					}
					if hi < lo || hi > rows {
						t.Fatalf("rows=%d cols=%d maxCells=%d: chunk %d = [%d,%d) out of range", rows, cols, maxCells, ci, lo, hi)
					}
					if hi == lo && rows > 0 {
						t.Fatalf("rows=%d cols=%d maxCells=%d: chunk %d empty", rows, cols, maxCells, ci)
					}
					if cells := (hi - lo) * cols; cells > maxCells && hi-lo > 1 {
						t.Fatalf("rows=%d cols=%d maxCells=%d: chunk %d holds %d cells over %d rows", rows, cols, maxCells, ci, cells, hi-lo)
					}
					next = hi
				}
				if next != rows {
					t.Fatalf("rows=%d cols=%d maxCells=%d: schedule ends at %d", rows, cols, maxCells, next)
				}
				// The single TP's lane quota counts the schedule the holder walks.
				if got := RectChunkCountRange(0, rows, cols, maxCells); got != len(chunks) {
					t.Fatalf("rows=%d cols=%d maxCells=%d: RectChunkCountRange=%d, schedule has %d chunks", rows, cols, maxCells, got, len(chunks))
				}
			}
		}
	}
	// Degenerate arguments normalize rather than panic.
	if got := RectChunks(-3, -1, 0); len(got) != 1 || got[0] != [2]int{0, 0} {
		t.Fatalf("RectChunks(-3, -1, 0) = %v", got)
	}
	if got := RectChunkCountRange(0, -3, -1, 0); got != 1 {
		t.Fatalf("RectChunkCountRange(0, -3, -1, 0) = %d", got)
	}
}

// TestSetCrossRowsMatchesSetCross is the property test of the chunked
// cross-block install: for every block shape and chunking — one row per
// chunk, a mid-size bound, the whole block at once — and even a reversed
// installation order, the assembled cells and the Done-primed max are
// bit-identical to the monolithic SetCross path.
func TestSetCrossRowsMatchesSetCross(t *testing.T) {
	for _, shape := range [][2]int{{0, 3}, {3, 0}, {1, 1}, {4, 7}, {17, 5}, {33, 33}} {
		nJ, nK := shape[0], shape[1]
		sizes := []int{nJ, nK}
		cross := func(m, n int) float64 { return synthDist(m+3, n) }
		build := func(install func(a *Assembler)) *Matrix {
			a, err := NewAssembler(sizes)
			if err != nil {
				t.Fatal(err)
			}
			for p, n := range sizes {
				if err := a.SetLocal(p, FromLocal(n, synthDist)); err != nil {
					t.Fatal(err)
				}
			}
			install(a)
			g, err := a.Done()
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		want := build(func(a *Assembler) {
			if err := a.SetCross(0, 1, cross); err != nil {
				t.Fatal(err)
			}
		})
		for _, maxCells := range []int{1, 64, 1 << 30} {
			for _, reversed := range []bool{false, true} {
				chunks := RectChunks(nK, nJ, maxCells)
				if reversed {
					rev := make([][2]int, len(chunks))
					for i, ch := range chunks {
						rev[len(chunks)-1-i] = ch
					}
					chunks = rev
				}
				got := build(func(a *Assembler) {
					for _, ch := range chunks {
						lo := ch[0]
						at := func(m, n int) float64 { return cross(lo+m, n) }
						if err := a.SetCrossRows(0, 1, ch[0], ch[1], at); err != nil {
							t.Fatalf("SetCrossRows([%d,%d)): %v", ch[0], ch[1], err)
						}
					}
				})
				if !got.EqualWithin(want, 0) {
					t.Fatalf("shape=%v maxCells=%d reversed=%v: cells differ from SetCross", shape, maxCells, reversed)
				}
				if got.Max() != want.Max() {
					t.Fatalf("shape=%v maxCells=%d reversed=%v: max %v vs SetCross %v", shape, maxCells, reversed, got.Max(), want.Max())
				}
			}
		}
	}
}

// TestSetCrossRowsReinstallMarksMaxStale: overwriting cross rows with
// smaller values must leave Done with the true (rescanned) maximum,
// whether the overwrite is chunk-over-chunk, chunk-over-monolith or
// monolith-over-chunks.
func TestSetCrossRowsReinstallMarksMaxStale(t *testing.T) {
	big := func(m, n int) float64 { return 10 }
	small := func(m, n int) float64 { return 3 }
	chunks := RectChunks(4, 4, 4) // one row per chunk
	install := func(t *testing.T, a *Assembler, at func(m, n int) float64) {
		t.Helper()
		for _, ch := range chunks {
			lo := ch[0]
			if err := a.SetCrossRows(0, 1, ch[0], ch[1], func(m, n int) float64 { return at(lo+m, n) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(label string, first, second func(a *Assembler)) {
		a, err := NewAssembler([]int{4, 4})
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 2; p++ {
			if err := a.SetLocal(p, FromLocal(4, func(i, j int) float64 { return 4 })); err != nil {
				t.Fatal(err)
			}
		}
		first(a)
		second(a)
		if !a.maxStale {
			t.Fatalf("%s: re-install did not mark the max stale", label)
		}
		g, err := a.Done()
		if err != nil {
			t.Fatal(err)
		}
		if got := g.Max(); got != 4 {
			t.Fatalf("%s: max after overwrite = %v, want 4", label, got)
		}
	}
	check("rows over rows",
		func(a *Assembler) { install(t, a, big) },
		func(a *Assembler) { install(t, a, small) })
	check("rows over monolith",
		func(a *Assembler) {
			if err := a.SetCross(0, 1, big); err != nil {
				t.Fatal(err)
			}
		},
		func(a *Assembler) { install(t, a, small) })
	check("monolith over rows",
		func(a *Assembler) { install(t, a, big) },
		func(a *Assembler) {
			if err := a.SetCross(0, 1, small); err != nil {
				t.Fatal(err)
			}
		})
	// A duplicated chunk mid-stream (same values) is also an overwrite.
	a, err := NewAssembler([]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	install(t, a, big)
	if err := a.SetCrossRows(0, 1, 1, 2, func(m, n int) float64 { return 10 }); err != nil {
		t.Fatal(err)
	}
	if !a.maxStale {
		t.Fatal("duplicate cross chunk did not mark the max stale")
	}
}

// TestSetCrossRowsValidation covers the error surface: bad pairs, bad
// ranges, invalid entries off the protocol layer, and Done's row-exact
// incompleteness report for a half-streamed cross block.
func TestSetCrossRowsValidation(t *testing.T) {
	a, err := NewAssembler([]int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	zero := func(m, n int) float64 { return 0 }
	if err := a.SetCrossRows(1, 0, 0, 1, zero); err == nil {
		t.Fatal("inverted pair accepted")
	}
	if err := a.SetCrossRows(-1, 1, 0, 1, zero); err == nil {
		t.Fatal("negative party accepted")
	}
	if err := a.SetCrossRows(0, 2, 0, 1, zero); err == nil {
		t.Fatal("party out of range accepted")
	}
	if err := a.SetCrossRows(0, 1, 2, 1, zero); err == nil {
		t.Fatal("inverted range accepted")
	}
	if err := a.SetCrossRows(0, 1, 0, 5, zero); err == nil {
		t.Fatal("range past the responder count accepted")
	}
	if err := a.SetCrossRows(0, 1, 0, 1, func(m, n int) float64 { return math.Inf(1) }); err == nil {
		t.Fatal("non-finite dissimilarity accepted")
	}
	if err := a.SetCrossRows(0, 1, 0, 1, func(m, n int) float64 { return -1 }); err == nil {
		t.Fatal("negative dissimilarity accepted")
	}
	for p, n := range []int{3, 4} {
		if err := a.SetLocal(p, FromLocal(n, synthDist)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.SetCrossRows(0, 1, 0, 2, zero); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Done(); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("partial cross rows not reported by Done: %v", err)
	}
}
