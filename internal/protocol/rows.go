package protocol

import (
	"fmt"

	"ppclust/internal/alphabet"
	"ppclust/internal/modp"
	"ppclust/internal/rng"
)

// Row-range third-party evaluation — the engine side of the chunked
// pairwise wire path. A responder streams its masked S/M matrix to the
// third party as contiguous row-range chunks (dissim.RectChunks schedule),
// and the third party evaluates each chunk the moment it arrives instead
// of waiting for the whole payload. The methods below are the row-exact
// forms of NumericThirdParty* and AlphaThirdParty: each takes one chunk
// (rows [lo, hi) of the full matrix) and returns that range's decoded
// distance block.
//
// Per-chunk mask alignment keeps the batched keystreams bit-identical to
// the monolithic evaluation:
//
//   - Batch mode re-initializes the shared generator at every row boundary
//     (the paper's per-row Reseed discipline), so every row of every chunk
//     consumes the same stream prefix. Each chunk call draws that prefix
//     and leaves jt rewound, exactly as the monolithic call does — the
//     masks stripped from chunk rows are the very values the monolithic
//     pass would strip, and chunks may in principle be evaluated in any
//     order.
//   - PerPair mode consumes one fresh mask per matrix cell, row-major,
//     with no re-initialization. A chunk call advances jt by exactly its
//     own rows·cols draws, so evaluating the chunks of one pair in
//     ascending row order on one shared jt stream consumes the identical
//     keystream positions as the monolithic pass. Callers MUST therefore
//     feed chunks in schedule order — the order the wire delivers them in.
//   - The alphanumeric protocol re-initializes per CCM row; a chunk call
//     draws the chunk's longest mask prefix (a prefix of the monolithic
//     pass's longest prefix, so the shared values are identical) and
//     leaves jt rewound.
//
// In all three cases, evaluating every chunk of a pair on one jt stream,
// in schedule order, yields blocks bit-identical to the monolithic
// evaluation of the reassembled matrix — the property the session's
// differential tests pin.

// chunkShape validates that a received chunk matrix covers exactly the
// scheduled row range.
func chunkShape(got, lo, hi int) error {
	if hi < lo {
		return fmt.Errorf("protocol: inverted chunk row range [%d,%d)", lo, hi)
	}
	if got != hi-lo {
		return fmt.Errorf("protocol: chunk carries %d rows, schedule range [%d,%d) wants %d", got, lo, hi, hi-lo)
	}
	return nil
}

// NumericThirdPartyIntRows is Figure 6 restricted to rows [lo, hi) of the
// responder's S matrix: chunk must hold exactly those rows (storage
// consistency is validated by the delegated whole-matrix method). See the
// package comment above for the mask-alignment contract; in PerPair mode
// the chunks of one pair must be evaluated in ascending row order on one
// shared jt stream.
func (e *Engine) NumericThirdPartyIntRows(chunk *Int64Matrix, lo, hi int, jt rng.Stream, params IntParams, mode Mode) (*Int64Matrix, error) {
	if err := chunkShape(chunk.Rows, lo, hi); err != nil {
		return nil, err
	}
	return e.NumericThirdPartyInt(chunk, jt, params, mode)
}

// NumericThirdPartyFloatRows is the real-valued form of
// NumericThirdPartyIntRows.
func (e *Engine) NumericThirdPartyFloatRows(chunk *Float64Matrix, lo, hi int, jt rng.Stream, params FloatParams, mode Mode) (*Float64Matrix, error) {
	if err := chunkShape(chunk.Rows, lo, hi); err != nil {
		return nil, err
	}
	return e.NumericThirdPartyFloat(chunk, jt, params, mode)
}

// NumericThirdPartyModPRows is the Z_p form of NumericThirdPartyIntRows.
func (e *Engine) NumericThirdPartyModPRows(chunk *ElementMatrix, lo, hi int, jt rng.Stream, mode Mode) (*Int64Matrix, error) {
	if err := chunkShape(chunk.Rows, lo, hi); err != nil {
		return nil, err
	}
	return e.NumericThirdPartyModP(chunk, jt, mode)
}

// AdvanceThirdPartyInt positions jt for a third party that evaluates only
// rows [rows, ·) of one pair's S matrix: in PerPair mode it draws and
// discards the masks of the first `rows` responder rows (rows·cols values,
// via the same FillInt64n the evaluation uses, so rejection-sampled word
// consumption is identical), leaving jt at the exact keystream position the
// monolithic pass would have reached. Batch and alphanumeric evaluation
// rewind jt per chunk, so those modes need no positioning and the call is a
// no-op. This is the entry point for TP shards whose row range starts
// mid-block.
func (e *Engine) AdvanceThirdPartyInt(jt rng.Stream, rows, cols int, params IntParams, mode Mode) {
	if mode != PerPair || rows <= 0 || cols <= 0 {
		return
	}
	buf := e.i64buf(rows * cols)
	rng.FillInt64n(jt, buf, params.MaskRange)
}

// AdvanceThirdPartyFloat is the real-valued form of AdvanceThirdPartyInt.
func (e *Engine) AdvanceThirdPartyFloat(jt rng.Stream, rows, cols int, params FloatParams, mode Mode) {
	if mode != PerPair || rows <= 0 || cols <= 0 {
		return
	}
	buf := e.f64buf(rows * cols)
	rng.FillFloat64(jt, buf)
}

// AdvanceThirdPartyModP is the Z_p form of AdvanceThirdPartyInt.
func (e *Engine) AdvanceThirdPartyModP(jt rng.Stream, rows, cols int, mode Mode) {
	if mode != PerPair || rows <= 0 || cols <= 0 {
		return
	}
	for i := 0; i < rows*cols; i++ {
		modp.Random(jt)
	}
}

// AlphaThirdPartyRows is Figure 10 restricted to rows [lo, hi) of the
// responder's intermediary-matrix block: chunk must hold exactly those
// rows (one row of per-initiator matrices per responder string). The mask
// prefix drawn per chunk is a prefix of the monolithic pass's, so decoded
// CCMs — and the edit distances computed from them — are bit-identical to
// evaluating the whole block at once; jt is left rewound either way.
func (e *Engine) AlphaThirdPartyRows(chunk [][]*SymbolMatrix, lo, hi int, a *alphabet.Alphabet, jt rng.Stream) (*Int64Matrix, error) {
	if err := chunkShape(len(chunk), lo, hi); err != nil {
		return nil, err
	}
	return e.AlphaThirdParty(chunk, a, jt)
}
