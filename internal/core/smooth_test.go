package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dp"
	"repro/internal/grid"
	"repro/internal/nn"
	"repro/internal/quadtree"
	"repro/internal/timeseries"
)

// hotspotDataset puts heavy consumption in one quadrant and nothing in the
// rest — the spatial structure the shrinkage must recover.
func hotspotDataset(cx int, T int, hot float64) *timeseries.Dataset {
	d := &timeseries.Dataset{Cx: cx, Cy: cx}
	for y := 0; y < cx; y++ {
		for x := 0; x < cx; x++ {
			v := 0.01
			if x < cx/2 && y < cx/2 {
				v = hot
			}
			vals := make([]float64, T)
			for t := range vals {
				vals[t] = v
			}
			d.Series = append(d.Series, &timeseries.Series{
				Location: timeseries.Location{X: x, Y: y}, Values: vals,
			})
		}
	}
	return d
}

func buildSanitizedTree(t *testing.T, d *timeseries.Dataset, depth, tTrain int, eps float64, seed int64) *quadtree.Tree {
	t.Helper()
	tree, err := quadtree.Build(d, quadtree.Params{Cx: d.Cx, Cy: d.Cy, Depth: depth, TTrain: tTrain})
	if err != nil {
		t.Fatal(err)
	}
	tree.Sanitize(dp.NewLaplace(rand.New(rand.NewSource(seed))), eps)
	return tree
}

func TestSmoothTreeRecoversHotspot(t *testing.T) {
	const cx, tTrain = 8, 24
	d := hotspotDataset(cx, tTrain, 1.0)
	tree := buildSanitizedTree(t, d, 3, tTrain, 20, 1)
	sm := smoothTree(tree, cx, cx, tTrain, 20)

	// Mean denoised level inside vs outside the hotspot.
	var hot, cold float64
	for t0 := 0; t0 < tTrain; t0++ {
		hot += sm.Est.At(1, 1, t0)
		cold += sm.Est.At(6, 6, t0)
	}
	if hot < 4*cold {
		t.Fatalf("hotspot not recovered: hot %v vs cold %v", hot, cold)
	}
	for _, v := range sm.Est.Data() {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("denoised estimate invalid: %v", v)
		}
	}
}

func TestSmoothTreeCorpusShapeMatchesTree(t *testing.T) {
	const cx, tTrain = 8, 16
	d := hotspotDataset(cx, tTrain, 0.5)
	tree := buildSanitizedTree(t, d, 2, tTrain, 10, 2)
	sm := smoothTree(tree, cx, cx, tTrain, 10)
	want := 1 + 4 + 16
	if len(sm.Corpus) != want {
		t.Fatalf("corpus series %d, want %d", len(sm.Corpus), want)
	}
	i := 0
	for _, lvl := range tree.Levels {
		for range lvl.Neighborhoods {
			if len(sm.Corpus[i]) != lvl.TimeEnd-lvl.TimeStart {
				t.Fatalf("corpus %d length %d, want %d", i, len(sm.Corpus[i]), lvl.TimeEnd-lvl.TimeStart)
			}
			i++
		}
	}
}

func TestSmoothTreeKeepsEmptyRegionsNearZero(t *testing.T) {
	const cx, tTrain = 8, 24
	// Strong mass only in one quadrant; the empty corner should stay well
	// below the hotspot despite leaf-level noise.
	d := hotspotDataset(cx, tTrain, 2.0)
	var hot, cold float64
	const trials = 10
	for seed := int64(0); seed < trials; seed++ {
		tree := buildSanitizedTree(t, d, 3, tTrain, 10, seed)
		sm := smoothTree(tree, cx, cx, tTrain, 10)
		for t0 := 0; t0 < tTrain; t0++ {
			hot += sm.Est.At(1, 1, t0)
			cold += sm.Est.At(7, 7, t0)
		}
	}
	if cold > hot/3 {
		t.Fatalf("empty region not suppressed: cold %v vs hot %v", cold, hot)
	}
}

func TestSanitizePerCellPreservesMassWithHugeBudget(t *testing.T) {
	d := testDataset(8, 8, 60, 20, 9)
	cfg := tinyConfig()
	cfg.EpsSanitize = 1e6
	lap := dp.NewLaplace(rand.New(rand.NewSource(3)))
	acct := dp.NewAccountant("t", dp.Sequential)
	truth := grid.FromDataset(d, cfg.TTrain, d.T())
	rel := sanitizePerCell(truth, cfg, 1, lap, acct.Root())
	for i, v := range rel.Data() {
		if math.Abs(v-truth.Data()[i]) > 0.01 {
			t.Fatalf("huge budget should be near-exact: %v vs %v", v, truth.Data()[i])
		}
	}
	if acct.TotalEpsilon() != 1e6 {
		t.Fatalf("accountant %v", acct.TotalEpsilon())
	}
}

func TestSanitizeStepMassAndClamping(t *testing.T) {
	d := testDataset(8, 8, 60, 20, 10)
	cfg := tinyConfig()
	cfg.EpsSanitize = 1e6
	truth := grid.FromDataset(d, cfg.TTrain, d.T())
	pattern := truth.Clone() // oracle pattern
	parts := QuantizeModeWorkers(pattern, 16, QuantLog, 1)
	lap := dp.NewLaplace(rand.New(rand.NewSource(4)))
	acct := dp.NewAccountant("t", dp.Sequential)
	rel := sanitizeStep(truth, parts, cfg, 1, lap, acct.Root())
	// With a huge budget, total mass must match almost exactly.
	if math.Abs(rel.Total()-truth.Total()) > truth.Total()*0.001 {
		t.Fatalf("mass %v vs %v", rel.Total(), truth.Total())
	}
	for _, v := range rel.Data() {
		if v < 0 {
			t.Fatalf("negative released value %v", v)
		}
	}
	// Budget spent equals EpsSanitize.
	if math.Abs(acct.TotalEpsilon()-cfg.EpsSanitize) > 1e-6*cfg.EpsSanitize {
		t.Fatalf("spent %v, want %v", acct.TotalEpsilon(), cfg.EpsSanitize)
	}
}

func TestRolloutLeveledAnchorsEmptyCells(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// A model that always predicts shape 1.5 — rollout output must stay
	// proportional to the seed's level. Cell (0, 0) is empty, cell (1, 0)
	// dense, and the two roll out in one row.
	m := buildConstantModel(t, rng)
	est := grid.NewMatrix(2, 1, 4)
	for t := 0; t < 4; t++ {
		est.Set(1, 0, t, 10)
	}
	cfg := tinyConfig()
	cfg.WindowSize = 4
	pattern := grid.NewMatrix(2, 1, 5)
	cellCtx := func(x, y int, frac float64) []float64 { return []float64{0.5, 0.5, frac} }
	if err := rolloutPattern(context.Background(), m, est, pattern, cfg, cellCtx, 0.1, 5); err != nil {
		t.Fatal(err)
	}
	out, outBig := pattern.Pillar(0, 0), pattern.Pillar(1, 0)
	for _, v := range out {
		if v > 0.01 {
			t.Fatalf("empty-cell rollout leaked mass: %v", out)
		}
	}
	if outBig[0] < 1 {
		t.Fatalf("dense-cell rollout lost its level: %v", outBig)
	}
}

// buildConstantModel trains a tiny net to output ~1.0 for any input, fast.
func buildConstantModel(t *testing.T, rng *rand.Rand) *constModel {
	t.Helper()
	return &constModel{}
}

// constModel is a trivial nn.Model stub predicting 1.0.
type constModel struct{}

func (c *constModel) Name() string                            { return "const" }
func (c *constModel) WindowSize() int                         { return 4 }
func (c *constModel) CtxSize() int                            { return 3 }
func (c *constModel) Params() []*nn.Param                     { return nil }
func (c *constModel) Forward(w, ctx []float64) (float64, any) { return 1.0, nil }
func (c *constModel) Backward(cache any, d float64)           {}
