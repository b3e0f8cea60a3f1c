package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (v is not modified).  An empty slice yields 0.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo] + f*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// geomean is the geometric mean of v; entries are floored at 1e-9 so
// a residual estimate that comes out non-positive cannot poison it.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += math.Log(math.Max(x, 1e-9))
	}
	return math.Exp(s / float64(len(v)))
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// memProbe brackets a region with runtime.MemStats readings: bytes
// allocated and GC cycles completed in between.
type memProbe struct{ alloc, gcs uint64 }

func readMem() memProbe {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memProbe{alloc: m.TotalAlloc, gcs: uint64(m.NumGC)}
}

func (p memProbe) since() (allocMB float64, gcs uint64) {
	q := readMem()
	return float64(q.alloc-p.alloc) / 1e6, q.gcs - p.gcs
}
