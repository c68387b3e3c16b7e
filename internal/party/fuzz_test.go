package party

import (
	"testing"

	"ppclust/internal/protocol"
	"ppclust/internal/wire"
)

// FuzzNumChunk feeds arbitrary bytes through the responder's
// disguised-chunk decode path: wire.DecodeBody into numSBody, then
// appendNumChunk for a fixed census shape (5 disguised rows × 3 initiator
// columns) and schedule chunk (rows [1, 3)). Every input must yield an
// error or a reassembled payload — never a panic — and the reassembled
// storage never exceeds totalRows×censusCols cells, whatever rows,
// columns or cells the chunk claims.
func FuzzNumChunk(f *testing.F) {
	const totalRows, censusCols = 5, 3
	ch := [2]int{1, 3}
	add := func(body numSBody) {
		payload, err := wire.EncodeBody(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	cells := totalRows * censusCols
	add(numSView(&numSBody{Float: &protocol.Float64Matrix{Rows: totalRows, Cols: censusCols, Cell: make([]float64, cells)}}, totalRows, ch))
	add(numSView(&numSBody{Int: &protocol.Int64Matrix{Rows: totalRows, Cols: censusCols, Cell: make([]int64, cells)}}, totalRows, ch))
	add(numSView(&numSBody{ModP: &protocol.ElementMatrix{Rows: totalRows, Cols: censusCols, Cell: make([][32]byte, cells)}}, totalRows, ch))
	add(numSBody{Rows: totalRows, Lo: ch[0], Hi: ch[1]})
	// Self-declared shapes whose Rows×Cols overflows to the cell count.
	add(numSBody{Rows: totalRows, Lo: ch[0], Hi: ch[1], Float: &protocol.Float64Matrix{Rows: 2, Cols: 1 << 62}})
	add(numSBody{Rows: totalRows, Lo: ch[0], Hi: ch[1], Int: &protocol.Int64Matrix{Rows: 0, Cols: 1 << 40}})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var chunk numSBody
		if err := wire.DecodeBody(payload, &chunk); err != nil {
			return
		}
		var mono numSBody
		if err := appendNumChunk(&mono, &chunk, ch, totalRows, censusCols); err != nil {
			return
		}
		var n, capacity, set int
		if mono.Float != nil {
			n, capacity, set = len(mono.Float.Cell), cap(mono.Float.Cell), set+1
		}
		if mono.Int != nil {
			n, capacity, set = len(mono.Int.Cell), cap(mono.Int.Cell), set+1
		}
		if mono.ModP != nil {
			n, capacity, set = len(mono.ModP.Cell), cap(mono.ModP.Cell), set+1
		}
		if set != 1 {
			t.Fatalf("accepted chunk left %d payload variants set", set)
		}
		if n > cells || capacity > cells {
			t.Fatalf("reassembled storage holds %d cells (capacity %d), census allows %d", n, capacity, cells)
		}
	})
}
