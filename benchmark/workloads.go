package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/datagen"
	"github.com/tukwila/adp/internal/engine"
	"github.com/tukwila/adp/internal/server"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
	"github.com/tukwila/adp/internal/workload"
)

// spec is the fixed shape of one workload; the dataset, the request body
// and the delta script derive from the seed (newInputs).
type spec struct {
	name string
	// sf is the TPC-H scale factor of a full run, quickSF of a -quick run
	// (the smallest at which the workload still shows its mechanism).
	sf, quickSF float64
	// prepared names the server-registered query; "" is the inline SPJ.
	prepared   string
	standing   bool
	strategy   string
	partitions int
	pollEvery  int
	// cards advertises exact cardinalities; wireless registers every
	// relation behind a bursty link, both exactly as adpserve does.
	cards, wireless     bool
	deltas, quickDeltas int
}

// The four workloads. The names are the contract with BENCHMARK.json,
// which also records why each exists.
var specs = []spec{
	{
		name: "spj_wide_out",
		sf:   0.02, quickSF: 0.002,
		strategy: "static", partitions: 1, cards: true,
	},
	{
		name: "agg_corrective",
		sf:   0.03, quickSF: 0.02,
		prepared: "Q5", strategy: "corrective", partitions: 1, wireless: true,
	},
	{
		name: "agg_par2",
		sf:   0.03, quickSF: 0.002,
		prepared: "Q3A", strategy: "static", partitions: 2, cards: true,
	},
	{
		name: "standing_churn",
		sf:   0.005, quickSF: 0.002,
		prepared: "Q3A", standing: true, strategy: "static", partitions: 1, cards: true,
		pollEvery: 256, deltas: 9000, quickDeltas: 600,
	},
}

func specByName(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// spjColumns is the inline SPJ's select list: ten columns, every kind,
// three relations.
var spjColumns = []string{
	"customer.c_custkey", "customer.c_name", "customer.c_mktsegment",
	"orders.o_orderkey", "orders.o_orderdate", "orders.o_totalprice",
	"lineitem.l_linenumber", "lineitem.l_quantity", "lineitem.l_extendedprice",
	"lineitem.l_returnflag",
}

// inputs is everything one run feeds the program, a pure function of
// (spec, seed, quick).
type inputs struct {
	spec *spec
	data *datagen.Dataset
	// genSeconds is how long datagen.Generate took (datagen.generate_s).
	genSeconds float64
	query      *algebra.Query
	// opts is what the server resolves the request's options to, for the
	// layer replays that enter below the HTTP handler.
	opts   core.Options
	path   string
	body   []byte
	script []source.Delta
	// workRows is the rows_per_s numerator per op: the rows of the
	// query's relations plus the delta rows.
	workRows int
}

func newInputs(sp *spec, seed int64, quick bool) (*inputs, error) {
	sf, deltas := sp.sf, sp.deltas
	if quick {
		sf, deltas = sp.quickSF, sp.quickDeltas
	}
	in := &inputs{spec: sp, path: "/v1/query"}
	elapsed := stopwatch()
	in.data = datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: seed})
	in.genSeconds = elapsed().Seconds()

	qspec := server.QuerySpec{Prepared: sp.prepared}
	if sp.prepared != "" {
		q, err := workload.ByName(sp.prepared)
		if err != nil {
			return nil, err
		}
		in.query = q
	} else {
		qspec = server.QuerySpec{
			Name:      "spj",
			Relations: []string{"customer", "orders", "lineitem"},
			Joins: []server.JoinSpec{
				{Left: "customer.c_custkey", Right: "orders.o_custkey"},
				{Left: "orders.o_orderkey", Right: "lineitem.l_orderkey"},
			},
			Select: spjColumns,
		}
		q, err := plainEngine(in.data.Relations(), false).Query("spj").
			From("customer", "orders", "lineitem").
			Join("customer", "c_custkey", "orders", "o_custkey").
			Join("orders", "o_orderkey", "lineitem", "l_orderkey").
			Select(spjColumns...).Build()
		if err != nil {
			return nil, err
		}
		in.query = q
	}
	for _, r := range in.query.Relations {
		in.workRows += in.data.Relations()[r.Name].Len()
	}

	ro := server.RunOptions{Strategy: sp.strategy, Partitions: sp.partitions, PollEvery: sp.pollEvery}
	in.opts = core.Options{Strategy: core.Static, Partitions: sp.partitions, PollEvery: sp.pollEvery}
	if sp.strategy == "corrective" {
		in.opts.Strategy = core.Corrective
	}
	if sp.cards {
		in.opts.Known = workload.KnownCards(in.data)
	}

	var req any = server.QueryRequest{Query: qspec, Options: ro}
	if sp.standing {
		in.path = "/v1/standing"
		in.script = churnScript(rand.New(rand.NewSource(seed)), in.data.Lineitem.Rows, deltas)
		in.workRows += len(in.script)
		req = server.StandingRequest{
			Query:   qspec,
			Deltas:  map[string][]server.DeltaSpec{"lineitem": wireDeltas(in.script)},
			Options: ro,
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	in.body = body
	return in, nil
}

// plainEngine registers every relation as a local source; cards
// advertises exact cardinalities.
func plainEngine(rels map[string]*source.Relation, cards bool) *engine.Engine {
	eng := engine.New()
	for name, rel := range rels {
		eng.Register(rel)
		if cards {
			eng.AdvertiseCardinality(name, float64(rel.Len()))
		}
	}
	return eng
}

// churnScript is n signed changes to base in thirds: an insert of a copy
// of a base row, a retraction of a base row, a retraction of an earlier
// insert. Base rows are drawn with replacement, so a few retractions hit
// a row that is already gone and exercise the ingress clamp. Stamps
// start at 0 and advance in 1e-4 virtual seconds.
func churnScript(rng *rand.Rand, base []types.Tuple, n int) []source.Delta {
	script := make([]source.Delta, 0, n)
	var inserted []types.Tuple
	for i := 0; i < n; i++ {
		d := source.Delta{At: float64(i) * 1e-4, Sign: -1}
		switch i % 3 {
		case 0:
			d.Sign = +1
			d.Row = base[rng.Intn(len(base))]
			inserted = append(inserted, d.Row)
		case 1:
			d.Row = base[rng.Intn(len(base))]
		default:
			j := rng.Intn(len(inserted))
			d.Row = inserted[j]
			inserted[j] = inserted[len(inserted)-1]
			inserted = inserted[:len(inserted)-1]
		}
		script = append(script, d)
	}
	return script
}

// wireDeltas renders a script in the request's JSON form.
func wireDeltas(script []source.Delta) []server.DeltaSpec {
	out := make([]server.DeltaSpec, len(script))
	for i, d := range script {
		row := make([]json.RawMessage, len(d.Row))
		for j, v := range d.Row {
			switch v.K {
			case types.KindInt:
				row[j] = strconv.AppendInt(nil, v.I, 10)
			case types.KindFloat:
				row[j] = strconv.AppendFloat(nil, v.F, 'g', -1, 64)
			default:
				row[j] = strconv.AppendQuote(nil, v.S)
			}
		}
		out[i] = server.DeltaSpec{At: d.At, Sign: d.Sign, Row: row}
	}
	return out
}
