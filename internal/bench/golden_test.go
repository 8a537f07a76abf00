package bench

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// The goldens below were written by the commit before the windowed
// pre-aggregate kept its window's groups in the aggregate's flat group store
// (it kept a map keyed by the encoded group key). Figure 6's windowed legs and
// the window-policy ablation run its partial stream; every leg pins the
// virtual clock's bits, so a partial that moved, split or merged differently
// would show.

var figure6Golden = []string{
	"Q3A/uniform/single 3fa6e7fdaabb2a0d 630",
	"Q3A/uniform/windowed 3f9f0c48e39ea06a 630",
	"Q3A/uniform/traditional 3f9f07b27be8aeab 630",
	"Q3A/skewed/single 3fa51d94657d325b 450",
	"Q3A/skewed/windowed 3f9d8057a9344150 450",
	"Q3A/skewed/traditional 3f9d7bb3d5850233 450",
	"Q10A/uniform/single 3fa7a8b164917a10 300",
	"Q10A/uniform/windowed 3fa18b96a19794dd 300",
	"Q10A/uniform/traditional 3fa7a8b164917a10 300",
	"Q10A/skewed/single 3fa7a70592e6f7f1 299",
	"Q10A/skewed/windowed 3fa18f0e255cb0db 299",
	"Q10A/skewed/traditional 3fa7a70592e6f7f1 299",
	"Q5/uniform/single 3f9ce8137a3047c6 1",
	"Q5/uniform/windowed 3fa090257c914b16 1",
	"Q5/uniform/traditional 3f9ce8137a3047c6 1",
	"Q5/skewed/single 3f9c3cd141a6937d 2",
	"Q5/skewed/windowed 3fa0ae94d3613b84 2",
	"Q5/skewed/traditional 3f9c3cd141a6937d 2",
}

var ablationsGolden = []string{
	"poll-interval/512 tuples 3facc408022d00ea phases=1 stitch=0.000s",
	"poll-interval/2048 tuples 3facc408022d00ea phases=1 stitch=0.000s",
	"poll-interval/8192 tuples 3facc408022d00ea phases=1 stitch=0.000s",
	"poll-interval/32768 tuples 3facc408022d00ea phases=1 stitch=0.000s",
	"pq-length/0 3faf91df90f4af6a merge-routed=1.7% out=12078",
	"pq-length/64 3f97f19bb92e8a57 merge-routed=99.5% out=12078",
	"pq-length/256 3f97ed923f3244f7 merge-routed=99.6% out=12078",
	"pq-length/1024 3f97e535795e90af merge-routed=99.7% out=12078",
	"pq-length/4096 3f97d636d8da2149 merge-routed=99.8% out=12078",
	"window-policy/adaptive(w0=64) 3f85a286a8254d97 partials=3005 coalesced=9073 finalW=16384",
	"window-policy/fixed(w=1) 3f6daed21002ac83 partials=12078 coalesced=0 finalW=1",
	"window-policy/fixed(w=64) 3f85b95520c3c4e6 partials=3150 coalesced=8928 finalW=64",
	"window-policy/fixed(w=4096) 3f85a20ddc619546 partials=3002 coalesced=9076 finalW=4096",
	"stitch-reuse/reuse 3fa5890f07dabfd5 phases=1 stitch=0.000s reused=0",
	"stitch-reuse/no-reuse 3fa5890f07dabfd5 phases=1 stitch=0.000s reused=0",
}

// TestFigure6Golden: every Figure 6 cell at the tiny size, clock bits and
// group count, as the golden above has it.
func TestFigure6Golden(t *testing.T) {
	cfg := tiny()
	cfg.Queries = []string{"Q3A", "Q10A", "Q5"}
	cells, err := Figure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range cells {
		got = append(got, fmt.Sprintf("%s/%s/%s %x %d", c.Query, c.Dataset, c.Mode, math.Float64bits(c.Seconds), c.Groups))
	}
	checkGolden(t, got, figure6Golden)
}

// TestAblationsGolden: every ablation row at the tiny size, clock bits and
// detail, as the golden above has it.
func TestAblationsGolden(t *testing.T) {
	rows, err := Ablations(tiny())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rows {
		got = append(got, fmt.Sprintf("%s/%s %x %s", r.Experiment, r.Setting, math.Float64bits(r.Seconds), r.Detail))
	}
	checkGolden(t, got, ablationsGolden)
}

func checkGolden(t *testing.T, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("got\n\t%q\nwant\n\t%q", got, want)
	}
}
