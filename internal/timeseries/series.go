// Package timeseries defines the household reading model of Section 2: a
// set of N households at fixed grid locations, each contributing a length-T
// series of consumption readings, plus the normalisation, clipping,
// windowing and error-metric utilities the STPT pipeline is built from.
package timeseries

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// Location is a household's cell coordinate on the Cx x Cy spatial grid.
type Location struct {
	X, Y int
}

// Series is one household's consumption readings x_{i,t}, t = 1..T.
type Series struct {
	Location Location
	Values   []float64
}

// Len returns the number of readings.
func (s *Series) Len() int { return len(s.Values) }

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	v := make([]float64, len(s.Values))
	copy(v, s.Values)
	return &Series{Location: s.Location, Values: v}
}

// Dataset is the meter-reading database D of Eq. 1: every household's
// series, all of equal length, with grid placement metadata.
type Dataset struct {
	Name   string
	Cx, Cy int // spatial grid dimensions the locations live on
	Series []*Series
}

// Validate checks structural invariants: equal series lengths and in-grid
// locations.
func (d *Dataset) Validate() error {
	if d.Cx <= 0 || d.Cy <= 0 {
		return fmt.Errorf("timeseries: invalid grid %dx%d", d.Cx, d.Cy)
	}
	if len(d.Series) == 0 {
		return fmt.Errorf("timeseries: empty dataset")
	}
	T := d.Series[0].Len()
	for i, s := range d.Series {
		if s.Len() != T {
			return fmt.Errorf("timeseries: series %d has length %d, want %d", i, s.Len(), T)
		}
		if s.Location.X < 0 || s.Location.X >= d.Cx || s.Location.Y < 0 || s.Location.Y >= d.Cy {
			return fmt.Errorf("timeseries: series %d location (%d,%d) outside %dx%d grid",
				i, s.Location.X, s.Location.Y, d.Cx, d.Cy)
		}
	}
	return nil
}

// T returns the series length (0 for an empty dataset).
func (d *Dataset) T() int {
	if len(d.Series) == 0 {
		return 0
	}
	return d.Series[0].Len()
}

// N returns the number of households.
func (d *Dataset) N() int { return len(d.Series) }

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{Name: d.Name, Cx: d.Cx, Cy: d.Cy, Series: make([]*Series, len(d.Series))}
	for i, s := range d.Series {
		out.Series[i] = s.Clone()
	}
	return out
}

// SeriesAt returns the first series at the given location, or nil when no
// household occupies that cell.
func (d *Dataset) SeriesAt(loc Location) *Series {
	for _, s := range d.Series {
		if s.Location == loc {
			return s
		}
	}
	return nil
}

// GlobalMinMax returns the smallest and largest reading across all
// households and times. It panics on an empty dataset.
func (d *Dataset) GlobalMinMax() (min, max float64) { return d.GlobalMinMaxWorkers(1) }

// GlobalMinMaxWorkers is GlobalMinMax with the household range sharded
// across workers. Min/max reduction is exact under any regrouping, so the
// result is bit-identical to the serial scan for every worker count.
func (d *Dataset) GlobalMinMaxWorkers(workers int) (min, max float64) {
	if len(d.Series) == 0 || d.T() == 0 {
		panic("timeseries: GlobalMinMax of empty dataset")
	}
	shards := parallel.Shards(len(d.Series), workers)
	mins := make([]float64, len(shards))
	maxs := make([]float64, len(shards))
	parallel.ForEachShard(workers, len(d.Series), func(sh int, r parallel.Range) {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range d.Series[r.Lo:r.Hi] {
			for _, v := range s.Values {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
		mins[sh], maxs[sh] = lo, hi
	})
	min, max = math.Inf(1), math.Inf(-1)
	for sh := range shards {
		if mins[sh] < min {
			min = mins[sh]
		}
		if maxs[sh] > max {
			max = maxs[sh]
		}
	}
	return min, max
}

// Normalizer applies and inverts the global min-max normalisation of
// Eq. 6. Keeping the fitted bounds lets sanitised values be mapped back to
// physical kWh.
type Normalizer struct {
	Min, Max float64
}

// FitNormalizerWorkers computes global min-max bounds over the dataset,
// with the scan sharded across workers; the fitted bounds are identical
// for every worker count.
func FitNormalizerWorkers(d *Dataset, workers int) Normalizer {
	min, max := d.GlobalMinMaxWorkers(workers)
	return Normalizer{Min: min, Max: max}
}

// Apply returns a normalised deep copy of d with values in [0, 1].
// A degenerate (constant) dataset maps to all zeros.
func (n Normalizer) Apply(d *Dataset) *Dataset {
	out := d.Clone()
	span := n.Max - n.Min
	for _, s := range out.Series {
		for i, v := range s.Values {
			if span == 0 {
				s.Values[i] = 0
			} else {
				s.Values[i] = (v - n.Min) / span
			}
		}
	}
	return out
}

// Invert maps a normalised value back to the original scale.
func (n Normalizer) Invert(v float64) float64 {
	return v*(n.Max-n.Min) + n.Min
}

// Clip caps every reading at the given ceiling, in place. The paper uses a
// per-dataset sensitivity clipping factor (Table 2) so that a single
// household's contribution — and hence the Laplace sensitivity — is
// bounded by a value far below the raw maximum.
func (d *Dataset) Clip(ceiling float64) {
	if ceiling <= 0 {
		panic(fmt.Sprintf("timeseries: non-positive clip ceiling %v", ceiling))
	}
	for _, s := range d.Series {
		for i, v := range s.Values {
			if v > ceiling {
				s.Values[i] = ceiling
			}
			if s.Values[i] < 0 {
				s.Values[i] = 0
			}
		}
	}
}

// Window is one supervised training sample: ws consecutive values and the
// next value as the target. Ctx carries optional side information constant
// across the window (STPT uses the source neighbourhood's location and
// scale, per the paper's "time series data along with their corresponding
// geographic locations").
type Window struct {
	Input  []float64
	Target float64
	Ctx    []float64
}

// SlidingWindows sweeps a window of size ws across values, producing
// len(values)-ws samples. It returns nil when the series is too short.
func SlidingWindows(values []float64, ws int) []Window {
	if ws <= 0 {
		panic(fmt.Sprintf("timeseries: non-positive window size %d", ws))
	}
	if len(values) <= ws {
		return nil
	}
	out := make([]Window, 0, len(values)-ws)
	for i := 0; i+ws < len(values); i++ {
		in := make([]float64, ws)
		copy(in, values[i:i+ws])
		out = append(out, Window{Input: in, Target: values[i+ws]})
	}
	return out
}
