// Wire protocol: the JSON query specification accepted by POST /v1/query
// and the NDJSON / SSE framing the service answers with. The full
// reference lives in docs/wire-protocol.md; the documented examples are
// round-tripped through a live server by TestWireProtocolDocExamples.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// ProtocolVersion names the wire protocol revision served under /v1.
// Additive changes (new frame fields, new event types) do not bump it;
// breaking changes mount a new path prefix. See docs/wire-protocol.md.
const ProtocolVersion = "1"

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	// Query specifies what to run: a prepared query by name, or an
	// inline select-project-join-aggregate specification.
	Query QuerySpec `json:"query"`
	// Options tunes how the query executes.
	Options RunOptions `json:"options,omitempty"`
}

// QuerySpec describes a query. Either Prepared names a server-registered
// query, or the inline fields describe an SPJA query over registered
// relations (Prepared wins when both are set).
type QuerySpec struct {
	// Name labels the query in reports and events (defaults to "wire").
	Name string `json:"name,omitempty"`
	// Prepared names a query registered on the server (e.g. "Q3A").
	Prepared string `json:"prepared,omitempty"`
	// Relations lists registered base relations.
	Relations []string `json:"relations,omitempty"`
	// Joins is the equijoin graph over those relations.
	Joins []JoinSpec `json:"joins,omitempty"`
	// Filters are per-relation local selections, ANDed per relation.
	Filters []FilterSpec `json:"filters,omitempty"`
	// GroupBy lists grouping columns (qualified names).
	GroupBy []string `json:"group_by,omitempty"`
	// Aggs lists aggregates; empty means a pure SPJ query.
	Aggs []AggWireSpec `json:"aggs,omitempty"`
	// Select lists SPJ output columns (ignored with aggregates).
	Select []string `json:"select,omitempty"`
}

// JoinSpec is one equijoin predicate; both sides are "relation.column".
type JoinSpec struct {
	Left  string `json:"left"`
	Right string `json:"right"`
}

// FilterSpec is one comparison "col op value" against a base relation's
// column; Col is qualified ("relation.column") and Op is one of
// =, !=, <, <=, >, >=. Value is a JSON string or number (integral
// numbers compare as integers, fractional ones as floats) or null.
type FilterSpec struct {
	Col   string          `json:"col"`
	Op    string          `json:"op"`
	Value json.RawMessage `json:"value"`
}

// AggWireSpec is one aggregate in the select list: Fn is min, max, sum,
// count, or avg; Arg is the aggregated column ("" or "*" for count(*));
// As names the output column.
type AggWireSpec struct {
	Fn  string `json:"fn"`
	Arg string `json:"arg,omitempty"`
	As  string `json:"as"`
}

// RunOptions tunes one execution; zero values take server defaults.
type RunOptions struct {
	// Strategy is static, corrective, or planpart (default corrective).
	Strategy string `json:"strategy,omitempty"`
	// Partitions is the partition-parallel width, clamped to the
	// server's per-query budget (<= 1 = serial).
	Partitions int `json:"partitions,omitempty"`
	// PollEvery is the monitor polling / row-flush cadence in tuples.
	PollEvery int `json:"poll_every,omitempty"`
	// PreAgg is none, traditional, or windowed.
	PreAgg string `json:"preagg,omitempty"`
	// SwitchFactor is the corrective switch threshold.
	SwitchFactor float64 `json:"switch_factor,omitempty"`
	// MaxPhases caps corrective phase switching.
	MaxPhases int `json:"max_phases,omitempty"`
	// PartialResults degrades gracefully on unrecoverable source
	// failure instead of failing the stream.
	PartialResults bool `json:"partial_results,omitempty"`
	// DeadlineMillis bounds the query's execution in wall-clock
	// milliseconds (0 = the server's default deadline).
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// StandingRequest is the body of POST /v1/standing: a query to run and
// keep maintained, plus the signed delta scripts to maintain it against.
type StandingRequest struct {
	// Query specifies the standing view, exactly like POST /v1/query.
	Query QuerySpec `json:"query"`
	// Deltas maps registered relation names to their signed change
	// scripts, applied in script order at the stamped virtual times.
	// Relations without an entry see no changes.
	Deltas map[string][]DeltaSpec `json:"deltas"`
	// Options tunes the run; strategy planpart is rejected (a standing
	// query maintains one plan tree). poll_every also sets the
	// update-watermark cadence in delta rows.
	Options RunOptions `json:"options,omitempty"`
}

// DeltaSpec is one signed change: sign +1 inserts the row, -1 deletes
// it, at virtual time at (seconds). Row values follow the relation's
// column kinds (JSON numbers for int/float columns, strings for string
// columns, null for NULL).
type DeltaSpec struct {
	At   float64           `json:"at"`
	Sign int               `json:"sign"`
	Row  []json.RawMessage `json:"row"`
}

// ---- Error envelope ------------------------------------------------------

// Error codes of the wire protocol (docs/wire-protocol.md).
const (
	CodeInvalidRequest    = "invalid_request"
	CodeAdmissionRejected = "admission_rejected"
	CodeQueueTimeout      = "queue_timeout"
	CodeDraining          = "draining"
	CodeNotFound          = "not_found"
	CodeDeadlineExceeded  = "deadline_exceeded"
	CodeCanceled          = "canceled"
	CodeSourceFailed      = "source_failed"
	CodeResourceExhausted = "resource_exhausted"
	CodeInternal          = "internal"
)

// WireError is the error envelope: the body of a non-2xx response, and
// the payload of a terminal {"type":"error"} frame when a streaming
// query fails after the HTTP status was already committed.
type WireError struct {
	// Code is a stable machine-readable error class.
	Code string `json:"code"`
	// HTTPStatus is the status the error maps to — the response status
	// for pre-stream errors, advisory inside an error frame.
	HTTPStatus int `json:"http_status"`
	// Message is human-readable detail.
	Message string `json:"message"`
	// Source names the failed source for source_failed errors.
	Source string `json:"source,omitempty"`
	// RowsDelivered counts rows streamed before a mid-stream failure —
	// the partial-result prefix the client already holds.
	RowsDelivered int64 `json:"rows_delivered,omitempty"`
}

// mapError classifies a run's terminal error into the wire envelope.
func mapError(err error, rows int64) WireError {
	we := WireError{Code: CodeInternal, HTTPStatus: 500, Message: err.Error(), RowsDelivered: rows}
	var serr *source.SourceError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		we.Code, we.HTTPStatus = CodeDeadlineExceeded, 504
	case errors.Is(err, context.Canceled):
		we.Code, we.HTTPStatus = CodeCanceled, 499
	case errors.As(err, &serr):
		we.Code, we.HTTPStatus, we.Source = CodeSourceFailed, 502, serr.Source
	}
	return we
}

// ---- Frames --------------------------------------------------------------

// schemaFrame is the first NDJSON frame of a successful query stream.
type schemaFrame struct {
	Type    string       `json:"type"` // "schema"
	ID      string       `json:"id"`
	Query   string       `json:"query"`
	Columns []wireColumn `json:"columns"`
}

type wireColumn struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// reportFrame is the terminal frame of a successful stream.
type reportFrame struct {
	Type   string     `json:"type"` // "report"
	Report WireReport `json:"report"`
}

// errorFrame is the terminal frame of a failed stream.
type errorFrame struct {
	Type  string    `json:"type"` // "error"
	Error WireError `json:"error"`
}

// errorBody is the envelope of a non-2xx (pre-stream) response.
type errorBody struct {
	Error WireError `json:"error"`
}

// watermarkFrame closes one update window on a standing-query stream:
// all update frames since the previous watermark belong to this window.
// Seq 0 is the baseline window asserting the initial result.
type watermarkFrame struct {
	Type           string  `json:"type"` // "watermark"
	Seq            int     `json:"seq"`
	Updates        int     `json:"updates"`
	DeltaRows      int64   `json:"delta_rows"`
	VirtualSeconds float64 `json:"virtual_seconds"`
}

// WireReport is the execution report as serialized in the terminal
// report frame (the result travels as row frames; Rows is its count).
type WireReport struct {
	Query          string                    `json:"query"`
	Strategy       string                    `json:"strategy"`
	Rows           int64                     `json:"rows"`
	VirtualSeconds float64                   `json:"virtual_seconds"`
	CPUSeconds     float64                   `json:"cpu_seconds"`
	RealSeconds    float64                   `json:"real_seconds"`
	Partitions     int                       `json:"partitions,omitempty"`
	Switches       int                       `json:"switches"`
	OptCalls       int                       `json:"opt_calls,omitempty"`
	Phases         []WirePhase               `json:"phases"`
	StitchSeconds  float64                   `json:"stitch_seconds,omitempty"`
	StitchCombos   int                       `json:"stitch_combos,omitempty"`
	Reused         int64                     `json:"reused,omitempty"`
	Discarded      int64                     `json:"discarded,omitempty"`
	Partial        bool                      `json:"partial,omitempty"`
	PlanCache      string                    `json:"plan_cache,omitempty"` // hit | miss
	SourceFaults   map[string]WireFaultStats `json:"source_faults,omitempty"`
	// Standing-query fields (POST /v1/standing only).
	Updates        int64 `json:"updates,omitempty"`
	DeltaRows      int64 `json:"delta_rows,omitempty"`
	DeltaClamped   int64 `json:"delta_clamped,omitempty"`
	MaintainedRows int64 `json:"maintained_rows,omitempty"`
	MaintSwitches  int   `json:"maint_switches,omitempty"`
}

// WirePhase is one executed phase inside a WireReport.
type WirePhase struct {
	Plan             string    `json:"plan"`
	Delivered        int64     `json:"delivered"`
	Seconds          float64   `json:"seconds"`
	PartitionSeconds []float64 `json:"partition_seconds,omitempty"`
}

// WireFaultStats is one source's fault/recovery counters.
type WireFaultStats struct {
	Transients     int     `json:"transients,omitempty"`
	Stalls         int     `json:"stalls,omitempty"`
	StallSeconds   float64 `json:"stall_seconds,omitempty"`
	Retries        int     `json:"retries,omitempty"`
	BackoffSeconds float64 `json:"backoff_seconds,omitempty"`
	FailedOver     bool    `json:"failed_over,omitempty"`
	Abandoned      bool    `json:"abandoned,omitempty"`
}

// wireReport converts a core report for the terminal frame. planCache is
// "hit"/"miss" when a plan cache served the query, "" when disabled or
// not applicable (PlanPartition).
func wireReport(rep *core.Report, planCache string) WireReport {
	out := WireReport{
		Query:          rep.Query,
		Strategy:       rep.Strategy.String(),
		Rows:           rep.RowCount,
		VirtualSeconds: rep.VirtualSeconds,
		CPUSeconds:     rep.CPUSeconds,
		RealSeconds:    rep.RealSeconds,
		Partitions:     rep.Partitions,
		Switches:       rep.Switches,
		OptCalls:       rep.OptCalls,
		StitchSeconds:  rep.StitchTime,
		StitchCombos:   rep.StitchCombos,
		Reused:         rep.Reused,
		Discarded:      rep.Discarded,
		Partial:        rep.Partial,
		PlanCache:      planCache,
		Updates:        rep.UpdateCount,
		DeltaRows:      rep.DeltaRows,
		DeltaClamped:   rep.DeltaClamped,
		MaintainedRows: int64(len(rep.Maintained)),
		MaintSwitches:  rep.MaintSwitches,
	}
	for _, p := range rep.Phases {
		out.Phases = append(out.Phases, WirePhase{
			Plan: p.Plan, Delivered: p.Delivered, Seconds: p.Seconds,
			PartitionSeconds: p.PartitionSeconds,
		})
	}
	if len(rep.SourceFaults) > 0 {
		out.SourceFaults = map[string]WireFaultStats{}
		for name, st := range rep.SourceFaults {
			out.SourceFaults[name] = WireFaultStats{
				Transients: st.Transients, Stalls: st.Stalls,
				StallSeconds: st.StallSeconds, Retries: st.Retries,
				BackoffSeconds: st.BackoffSeconds,
				FailedOver:     st.FailedOver, Abandoned: st.Abandoned,
			}
		}
	}
	return out
}

// ---- Row frame encoding --------------------------------------------------

// rowFramePrefix/Suffix delimit the hot-path row frame; AppendRowFrame
// fills the values array.
const (
	rowFramePrefix = `{"type":"row","values":[`
	rowFrameSuffix = "]}\n"
)

// AppendRowFrame appends one NDJSON row frame (newline included) to dst
// and returns the extended slice. This is the per-row encode hot path of
// the query service: it performs no allocations beyond growing dst, so a
// handler reusing its buffer streams rows allocation-free
// (BenchmarkRowEncode pins the budget in CI). NULL encodes as JSON null;
// non-finite floats (never produced by the TPC-H workload) also encode
// as null, since JSON has no NaN/Inf.
//
//adp:hotpath gated by BenchmarkRowEncode (scripts/check_allocs.sh)
func AppendRowFrame(dst []byte, t types.Tuple) []byte {
	dst = append(dst, rowFramePrefix...)
	dst = appendTupleValues(dst, t)
	return append(dst, rowFrameSuffix...)
}

// updateFramePrefix opens a standing-query update frame; the sign and
// the values array follow.
const updateFramePrefix = `{"type":"update","sign":`

// AppendUpdateFrame appends one NDJSON signed-update frame (newline
// included) to dst — the standing-query counterpart of AppendRowFrame,
// under the same zero-allocation contract.
//
//adp:hotpath gated by BenchmarkRowEncode (scripts/check_allocs.sh)
func AppendUpdateFrame(dst []byte, t types.Tuple, sign int) []byte {
	dst = append(dst, updateFramePrefix...)
	if sign >= 0 {
		dst = append(dst, '1')
	} else {
		dst = append(dst, '-', '1')
	}
	dst = append(dst, `,"values":[`...)
	dst = appendTupleValues(dst, t)
	return append(dst, rowFrameSuffix...)
}

// appendTupleValues appends a tuple's values as JSON array elements
// (no brackets), allocation-free.
//
//adp:hotpath gated by BenchmarkRowEncode (scripts/check_allocs.sh)
func appendTupleValues(dst []byte, t types.Tuple) []byte {
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch v.K {
		case types.KindInt:
			dst = strconv.AppendInt(dst, v.I, 10)
		case types.KindFloat:
			if math.IsNaN(v.F) || math.IsInf(v.F, 0) {
				dst = append(dst, "null"...)
			} else {
				dst = appendFloat(dst, v.F)
			}
		case types.KindString:
			dst = appendJSONString(dst, v.S)
		default:
			dst = append(dst, "null"...)
		}
	}
	return dst
}

// appendFloat appends f byte for byte as strconv.AppendFloat(dst, f, 'g',
// -1, 64) does — the shortest decimal that reads back as f — and prints the
// short decimals stored data is made of (prices in cents, quantities)
// without strconv's shortest-digit search.
//
// Why the fast path is exact: for 1e-4 <= |f| < 1e6, let n = round(|f|·1e8).
// n < 1e14 < 2^53 is an exact float64, and so is 1e8, so the division n/1e8
// is the decimal d = n·10⁻⁸ correctly rounded: n/1e8 == |f| says that d
// reads back as |f|. d has at most 14 significant digits. No two distinct
// decimals of at most 15 significant digits round to the same double, and
// the shortest decimal that reads back as |f| has no more digits than d, so
// it is d. d lies in [1e-4, 1e6) (rounding is monotone, and 1e6 is exact),
// where strconv prints the shortest decimal in %f form with no trailing
// zeros: the integer part, then '.' and the fraction if it is not zero.
// That costs one multiply, one round and one divide. Every other value —
// computed ones such as qty × price or a sum, whose shortest form is
// longer, ±0, subnormals, |f| >= 1e6, NaN and ±Inf — goes to strconv.
//
//adp:hotpath gated by BenchmarkRowEncode (scripts/check_allocs.sh)
func appendFloat(dst []byte, f float64) []byte {
	if a := math.Abs(f); a >= 1e-4 && a < 1e6 {
		if n := math.Round(a * 1e8); n/1e8 == a {
			u := uint64(n)
			ip, fp := u/1e8, u%1e8
			var b [24]byte
			i := len(b)
			if fp != 0 {
				w := 8
				for fp%10 == 0 {
					fp /= 10
					w--
				}
				for ; w > 0; w-- {
					i--
					b[i] = byte('0' + fp%10)
					fp /= 10
				}
				i--
				b[i] = '.'
			}
			for {
				i--
				b[i] = byte('0' + ip%10)
				if ip /= 10; ip == 0 {
					break
				}
			}
			if f < 0 {
				i--
				b[i] = '-'
			}
			return append(dst, b[i:]...)
		}
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// appendJSONString appends s as a JSON string literal: quotes and
// backslashes escaped, control characters as \u00XX, valid UTF-8 passed
// through (invalid bytes become U+FFFD, matching encoding/json).
//
//adp:hotpath gated by BenchmarkRowEncode (scripts/check_allocs.sh)
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"':
				dst = append(dst, '\\', '"')
			case '\\':
				dst = append(dst, '\\', '\\')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0',
					hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `�`...)
			i++
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

// ---- Request resolution --------------------------------------------------

// buildQuery resolves a QuerySpec into a validated algebra query against
// the server's engine and prepared-query registry.
func (s *Server) buildQuery(spec QuerySpec) (*algebra.Query, error) {
	if spec.Prepared != "" {
		q, ok := s.prepared[spec.Prepared]
		if !ok {
			return nil, fmt.Errorf("unknown prepared query %q (have %s)",
				spec.Prepared, strings.Join(slices.Sorted(maps.Keys(s.prepared)), ", "))
		}
		return q, nil
	}
	if len(spec.Relations) == 0 {
		return nil, fmt.Errorf("query needs a prepared name or relations")
	}
	name := spec.Name
	if name == "" {
		name = "wire"
	}
	q := &algebra.Query{Name: name, Filters: map[string]expr.Predicate{}}
	for _, rn := range spec.Relations {
		rel, ok := s.eng.Relation(rn)
		if !ok {
			return nil, fmt.Errorf("unknown relation %q", rn)
		}
		q.Relations = append(q.Relations, algebra.RelRef{Name: rn, Schema: rel.Schema})
	}
	for _, j := range spec.Joins {
		lr, lc, err := splitQualified(j.Left)
		if err != nil {
			return nil, fmt.Errorf("join left: %w", err)
		}
		rr, rc, err := splitQualified(j.Right)
		if err != nil {
			return nil, fmt.Errorf("join right: %w", err)
		}
		q.Joins = append(q.Joins, algebra.JoinPred{
			LeftRel: lr, LeftCol: lc, RightRel: rr, RightCol: rc,
		})
	}
	for _, f := range spec.Filters {
		rel, _, err := splitQualified(f.Col)
		if err != nil {
			return nil, fmt.Errorf("filter: %w", err)
		}
		p, err := buildFilter(f)
		if err != nil {
			return nil, err
		}
		if existing, ok := q.Filters[rel]; ok {
			q.Filters[rel] = expr.AndOf(existing, p)
		} else {
			q.Filters[rel] = p
		}
	}
	q.GroupBy = append(q.GroupBy, spec.GroupBy...)
	for _, a := range spec.Aggs {
		kind, err := aggKind(a.Fn)
		if err != nil {
			return nil, err
		}
		var arg expr.Expr
		if a.Arg != "" && a.Arg != "*" {
			arg = expr.Column(a.Arg)
		}
		q.Aggs = append(q.Aggs, algebra.AggSpec{Kind: kind, Arg: arg, As: a.As})
	}
	q.Project = append(q.Project, spec.Select...)
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// splitQualified splits "relation.column" at the first dot.
func splitQualified(s string) (rel, col string, err error) {
	dot := strings.IndexByte(s, '.')
	if dot <= 0 || dot == len(s)-1 {
		return "", "", fmt.Errorf("column %q is not relation.column", s)
	}
	return s[:dot], s[dot+1:], nil
}

// buildFilter turns one FilterSpec into a bound-able predicate.
func buildFilter(f FilterSpec) (expr.Predicate, error) {
	lit, err := literalOf(f.Value)
	if err != nil {
		return nil, fmt.Errorf("filter on %q: %w", f.Col, err)
	}
	col := expr.Column(f.Col)
	switch f.Op {
	case "=", "==":
		return expr.Eq(col, lit), nil
	case "!=", "<>":
		return expr.Ne(col, lit), nil
	case "<":
		return expr.Lt(col, lit), nil
	case "<=":
		return expr.Le(col, lit), nil
	case ">":
		return expr.Gt(col, lit), nil
	case ">=":
		return expr.Ge(col, lit), nil
	default:
		return nil, fmt.Errorf("filter on %q: unknown op %q", f.Col, f.Op)
	}
}

// literalOf converts a JSON scalar to an expression literal: strings stay
// strings, integral numbers become ints, fractional numbers floats, and
// null the NULL literal.
func literalOf(raw json.RawMessage) (expr.Expr, error) {
	var v any
	if len(raw) == 0 {
		return nil, fmt.Errorf("missing value")
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("bad value: %w", err)
	}
	switch x := v.(type) {
	case string:
		return expr.StrLit(x), nil
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1<<53 {
			return expr.IntLit(int64(x)), nil
		}
		return expr.FloatLit(x), nil
	case nil:
		return expr.Lit(types.Null()), nil
	default:
		return nil, fmt.Errorf("value must be a string, number, or null")
	}
}

// aggKind resolves a wire aggregate-function name.
func aggKind(fn string) (algebra.AggKind, error) {
	switch strings.ToLower(fn) {
	case "min":
		return algebra.AggMin, nil
	case "max":
		return algebra.AggMax, nil
	case "sum":
		return algebra.AggSum, nil
	case "count":
		return algebra.AggCount, nil
	case "avg":
		return algebra.AggAvg, nil
	default:
		return 0, fmt.Errorf("unknown aggregate %q (min|max|sum|count|avg)", fn)
	}
}

// buildOptions resolves RunOptions against the server's budgets into a
// core.Options plus the effective wall-clock deadline.
func (s *Server) buildOptions(ro RunOptions) (core.Options, error) {
	var o core.Options
	switch strings.ToLower(ro.Strategy) {
	case "", "corrective":
		o.Strategy = core.Corrective
	case "static":
		o.Strategy = core.Static
	case "planpart", "plan-partitioning":
		o.Strategy = core.PlanPartition
	default:
		return o, fmt.Errorf("unknown strategy %q (static|corrective|planpart)", ro.Strategy)
	}
	switch strings.ToLower(ro.PreAgg) {
	case "", "none":
		o.PreAgg = opt.PreAggNone
	case "traditional":
		o.PreAgg = opt.PreAggTraditional
	case "windowed":
		o.PreAgg = opt.PreAggWindowed
	default:
		return o, fmt.Errorf("unknown preagg mode %q (none|traditional|windowed)", ro.PreAgg)
	}
	if ro.Partitions < 0 || ro.PollEvery < 0 || ro.MaxPhases < 0 ||
		ro.SwitchFactor < 0 || ro.DeadlineMillis < 0 {
		return o, fmt.Errorf("negative option values are invalid")
	}
	// Per-query partition budget: the request may ask for less than the
	// server allows, never more.
	o.Partitions = ro.Partitions
	if o.Partitions > s.cfg.MaxPartitions {
		o.Partitions = s.cfg.MaxPartitions
	}
	o.PollEvery = ro.PollEvery
	o.SwitchFactor = ro.SwitchFactor
	o.MaxPhases = ro.MaxPhases
	o.PartialResults = ro.PartialResults
	o.SourcePolicies = s.cfg.SourcePolicies
	return o, nil
}

// wireSchema builds the schema frame's column list.
func wireSchema(s *types.Schema) []wireColumn {
	if s == nil {
		return nil
	}
	out := make([]wireColumn, 0, s.Len())
	for _, c := range s.Cols {
		out = append(out, wireColumn{Name: c.Name, Kind: c.Kind.String()})
	}
	return out
}

// eventWire renders one core event as (SSE event name, JSON payload).
func eventWire(ev core.Event) (string, []byte) {
	type vs struct {
		VirtualSeconds float64 `json:"virtual_seconds"`
	}
	var (
		name    string
		payload any
	)
	switch e := ev.(type) {
	case core.PhaseStarted:
		name = "PhaseStarted"
		payload = struct {
			Phase      int    `json:"phase"`
			Plan       string `json:"plan"`
			Partitions int    `json:"partitions"`
			vs
		}{e.Phase, e.Plan, e.Partitions, vs{e.VirtualSeconds}}
	case core.PlanSwitched:
		name = "PlanSwitched"
		payload = struct {
			Phase            int     `json:"phase"`
			From             string  `json:"from"`
			To               string  `json:"to"`
			CurrentRemaining float64 `json:"current_remaining"`
			CandidateCost    float64 `json:"candidate_cost"`
			StitchPenalty    float64 `json:"stitch_penalty"`
			vs
		}{e.Phase, e.From, e.To, e.CurrentRemaining, e.CandidateCost, e.StitchPenalty, vs{e.VirtualSeconds}}
	case core.StitchUpStarted:
		name = "StitchUpStarted"
		payload = struct {
			Phases int `json:"phases"`
			vs
		}{e.Phases, vs{e.VirtualSeconds}}
	case core.PartitionStats:
		name = "PartitionStats"
		payload = struct {
			Phase     int       `json:"phase"`
			Delivered int64     `json:"delivered"`
			Seconds   []float64 `json:"seconds"`
			vs
		}{e.Phase, e.Delivered, e.Seconds, vs{e.VirtualSeconds}}
	case core.RowsDelivered:
		name = "RowsDelivered"
		payload = struct {
			Rows int64 `json:"rows"`
			vs
		}{e.Rows, vs{e.VirtualSeconds}}
	case core.SourceStalled:
		name = "SourceStalled"
		payload = struct {
			Source  string  `json:"source"`
			Tuple   int     `json:"tuple"`
			Seconds float64 `json:"seconds"`
			vs
		}{e.Source, e.Tuple, e.Seconds, vs{e.VirtualSeconds}}
	case core.SourceRetried:
		name = "SourceRetried"
		payload = struct {
			Source  string  `json:"source"`
			Tuple   int     `json:"tuple"`
			Attempt int     `json:"attempt"`
			Backoff float64 `json:"backoff"`
			vs
		}{e.Source, e.Tuple, e.Attempt, e.Backoff, vs{e.VirtualSeconds}}
	case core.SourceFailedOver:
		name = "SourceFailedOver"
		payload = struct {
			Source string `json:"source"`
			Tuple  int    `json:"tuple"`
			vs
		}{e.Source, e.Tuple, vs{e.VirtualSeconds}}
	case core.MaintenanceStarted:
		name = "MaintenanceStarted"
		payload = struct {
			Relations []string `json:"relations"`
			vs
		}{e.Relations, vs{e.VirtualSeconds}}
	case core.UpdateWatermark:
		name = "UpdateWatermark"
		payload = struct {
			Seq       int   `json:"seq"`
			Updates   int   `json:"updates"`
			DeltaRows int64 `json:"delta_rows"`
			vs
		}{e.Seq, e.Updates, e.DeltaRows, vs{e.VirtualSeconds}}
	case core.SourceAbandoned:
		name = "SourceAbandoned"
		errMsg := ""
		if e.Err != nil {
			errMsg = e.Err.Error()
		}
		payload = struct {
			Source  string `json:"source"`
			Tuple   int    `json:"tuple"`
			Error   string `json:"error"`
			Partial bool   `json:"partial"`
			vs
		}{e.Source, e.Tuple, errMsg, e.Partial, vs{e.VirtualSeconds}}
	default:
		name = "Unknown"
		payload = struct{}{}
	}
	data, err := json.Marshal(payload)
	if err != nil {
		data = []byte("{}")
	}
	return name, data
}
