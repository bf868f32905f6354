package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiments/baseline"
	"repro/internal/sqlengine"
)

// CostModel converts metered work into deterministic simulated time for the
// paper's figures. The unit costs are calibrated against wall-clock
// microbenchmarks of the actual substrates on commodity hardware (see cost
// figures below), so the simulated breakdowns keep the shape of real
// executions while staying reproducible on shared CI machines. Nothing
// outside this package reports a simulated time: the engine, the cacher and
// EXPLAIN ANALYZE report the counters the model reads.
//
// Calibration anchors (order-of-magnitude, from this repo's benchmarks):
//   - columnar read decodes ~1 GB/s        → ~1 ns/byte
//   - tree JSON parsing runs ~150 MB/s     → ~6.7 ns/byte
//   - structural-index projection ~600 MB/s→ ~1.7 ns/byte
//   - streaming trie extraction ~500 MB/s  → ~2.0 ns/byte scanned
//   - row compute (expr eval, hashing)     → ~120 ns/row-op
//
// Streaming extraction is charged per byte *scanned*: early exit means the
// tail of a document costs nothing, and the skipped bytes surface separately
// as the parse_bytes_skipped counter rather than as parse cost.
type CostModel struct {
	ReadNsPerByte        float64
	ParseNsPerByteTree   float64 // Jackson-style full parse
	ParseNsPerByteIndex  float64 // Mison-style structural index
	ParseNsPerByteStream float64 // streaming trie extraction (per byte scanned)
	ParseNsPerCall       float64 // fixed per-get_json_object overhead
	ComputeNsPerRowOp    float64
	PlanNsPerExprNode    float64
	// PrefilterNsPerByte rates the Sparser-style raw substring scan
	// (SIMD-class throughput, far cheaper than parsing).
	PrefilterNsPerByte float64
}

// DefaultCostModel returns the calibrated defaults. The tree rate and the
// per-call cost are the scorer's P_j constants.
func DefaultCostModel() CostModel {
	return CostModel{
		ReadNsPerByte:        1.0,
		ParseNsPerByteTree:   core.TreeParseNsPerByte,
		ParseNsPerByteIndex:  1.7,
		ParseNsPerByteStream: 2.0,
		ParseNsPerCall:       core.ParseNsPerCall,
		ComputeNsPerRowOp:    120,
		PlanNsPerExprNode:    15000,
		PrefilterNsPerByte:   0.2,
	}
}

// PhaseBreakdown is the Read/Parse/Compute split of simulated time used by
// Fig 3 and Fig 12.
type PhaseBreakdown struct {
	Read    time.Duration
	Parse   time.Duration
	Compute time.Duration
}

// Total returns the summed phase time.
func (p PhaseBreakdown) Total() time.Duration { return p.Read + p.Parse + p.Compute }

// String renders the split as "read R + parse P + compute C = T".
func (p PhaseBreakdown) String() string {
	return fmt.Sprintf("read %v + parse %v + compute %v = %v", p.Read, p.Parse, p.Compute, p.Total())
}

// parseNsPerByte is the rate of the parser backend that metered the bytes:
// tree for Jackson, stream for the engine's own StreamBackend, structural
// index for Mison.
func (cm CostModel) parseNsPerByte(backend sqlengine.ParserBackend) float64 {
	switch backend.(type) {
	case baseline.JacksonBackend:
		return cm.ParseNsPerByteTree
	case sqlengine.StreamBackend:
		return cm.ParseNsPerByteStream
	}
	return cm.ParseNsPerByteIndex
}

// Breakdown converts the counters of a query the engine ran with backend
// into simulated phase times. Parse cost is charged per byte the backend
// actually scanned — for the streaming extractor the early-exited tail
// (Parse.Skipped) is free.
func (cm CostModel) Breakdown(m *sqlengine.Metrics, backend sqlengine.ParserBackend) PhaseBreakdown {
	pc := m.Parse.Snapshot()
	return PhaseBreakdown{
		Read: time.Duration(float64(m.BytesRead.Load()) * cm.ReadNsPerByte),
		Parse: time.Duration(float64(pc.Bytes)*cm.parseNsPerByte(backend) + float64(pc.Calls)*cm.ParseNsPerCall +
			float64(m.PrefilterBytes.Load())*cm.PrefilterNsPerByte),
		Compute: time.Duration(float64(m.RowOps.Load()) * cm.ComputeNsPerRowOp),
	}
}

// SimulatedTime is the total simulated execution time.
func (cm CostModel) SimulatedTime(m *sqlengine.Metrics, backend sqlengine.ParserBackend) time.Duration {
	return cm.Breakdown(m, backend).Total()
}

// SimulatedPlanTime converts plan-phase work into simulated time.
func (cm CostModel) SimulatedPlanTime(m *sqlengine.Metrics) time.Duration {
	return time.Duration(float64(m.PlanExprNodes) * cm.PlanNsPerExprNode)
}
