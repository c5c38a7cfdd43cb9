package engine

// RowOf returns source u's out-row as e's push phase reads it, for the
// external tests that hold it against stream.Overlay's materialized graph.
func RowOf(e *Engine, u uint32) ([]uint32, []uint8) { return e.row(u) }

// ForcePush pins every sparse superstep of a run to push, so the run reads
// the rows.
var ForcePush = RunOptions{forceStrategy: func(int) direction { return dirPush }}
