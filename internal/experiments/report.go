package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"fedcross/internal/data"
	"fedcross/internal/models"
)

// Table is a fixed-width text table renderer shared by all harnesses.
type Table struct {
	// Title is printed above the table.
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the cell strings.
	Rows [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// WriteTo renders the table with aligned columns.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Series is a set of named curves sampled at shared x positions — the
// learning-curve figures.
type Series struct {
	// Title is printed above the series block.
	Title string
	// XLabel names the x axis (usually "round").
	XLabel string
	// Xs are the sample positions.
	Xs []int
	// Curves maps a name to y values aligned with Xs.
	Curves map[string][]float64
	// Order fixes the column order; unspecified names follow sorted.
	Order []string
}

// WriteTo renders the series as aligned columns, one row per x.
func (s *Series) WriteTo(w io.Writer) (int64, error) {
	names := s.Order
	if len(names) == 0 {
		for name := range s.Curves {
			names = append(names, name)
		}
	}
	t := Table{Title: s.Title, Header: append([]string{s.XLabel}, names...)}
	for i, x := range s.Xs {
		row := []string{fmt.Sprintf("%d", x)}
		for _, name := range names {
			c := s.Curves[name]
			if i < len(c) {
				row = append(row, fmt.Sprintf("%.4f", c[i]))
			} else {
				row = append(row, "-")
			}
		}
		t.Add(row...)
	}
	return t.WriteTo(w)
}

// Stat is a mean ± population-std summary over repeated runs.
type Stat struct {
	Mean, Std float64
	N         int
}

// NewStat summarises values.
func NewStat(values []float64) Stat {
	if len(values) == 0 {
		return Stat{}
	}
	mean := 0.0
	for _, v := range values {
		mean += v
	}
	mean /= float64(len(values))
	variance := 0.0
	for _, v := range values {
		d := v - mean
		variance += d * d
	}
	variance /= float64(len(values))
	return Stat{Mean: mean, Std: math.Sqrt(variance), N: len(values)}
}

// String renders the paper's "54.78 ± 0.56" accuracy cell style (in
// percent).
func (s Stat) String() string {
	return fmt.Sprintf("%.2f ± %.2f", 100*s.Mean, 100*s.Std)
}

// Heatmap renders an integer matrix (Fig 3's class × client counts) with
// scaled glyphs, mirroring the paper's dot-size encoding.
type Heatmap struct {
	Title  string
	Counts [][]int
}

// WriteTo renders the heat map.
func (h *Heatmap) WriteTo(w io.Writer) (int64, error) {
	maxV := 1
	for _, row := range h.Counts {
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
	}
	glyphs := []byte(" .:*#@")
	var b strings.Builder
	if h.Title != "" {
		fmt.Fprintf(&b, "%s\n", h.Title)
	}
	for r, row := range h.Counts {
		fmt.Fprintf(&b, "%8d ", r)
		for _, v := range row {
			g := glyphs[0]
			if v > 0 {
				idx := 1 + v*(len(glyphs)-2)/maxV
				if idx >= len(glyphs) {
					idx = len(glyphs) - 1
				}
				g = glyphs[idx]
			}
			b.WriteByte(g)
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// TableI writes the paper's Table I for K activated clients: each
// algorithm's taxonomy category and per-round communication, read from the
// algorithm itself. FedCross's traffic equals FedAvg's (Low), FedGen's is
// Medium and SCAFFOLD's High.
func TableI(w io.Writer, k int) error {
	if k <= 0 {
		return fmt.Errorf("experiments: TableI needs K > 0, got %d", k)
	}
	t := Table{
		Title:  fmt.Sprintf("Table I — method categories and per-round communication (K=%d)", k),
		Header: []string{"Method", "Category", "Per-round traffic", "Overhead", "Model-equivalents"},
	}
	for _, name := range AlgorithmNames() {
		algo, err := NewAlgorithm(name)
		if err != nil {
			return err
		}
		p := algo.RoundComm(k)
		t.Add(algo.Name(), algo.Category(), p.String(), p.OverheadClass(), fmt.Sprintf("%.1f", p.TotalModelEquivalents(0.25)))
	}
	_, err := t.WriteTo(w)
	return err
}

// Fig3 writes the paper's Figure 3: for each heterogeneity setting (nil is
// the paper's Dir(0.1), Dir(0.5) and Dir(1.0)) the class × client sample
// counts of the first ten clients as a heat map, titled with the skew —
// the mean squared deviation of each client's class shares from uniform,
// larger at smaller β. The vision corpus is generated and partitioned
// from the profile's first seed; nothing trains.
func Fig3(w io.Writer, p Profile, hets []data.Heterogeneity) error {
	if hets == nil {
		hets = []data.Heterogeneity{{Beta: 0.1}, {Beta: 0.5}, {Beta: 1.0}}
	}
	seed := firstSeed(p)
	cfg := data.VisionConfig{Classes: 10, Features: models.VisionFeatures, TrainPerClass: p.VisionTrainPerClass,
		TestPerClass: 1, ModesPerClass: 1, Sep: 1, Noise: 0.3, Seed: seed}
	for _, het := range hets {
		fed := data.BuildVision(cfg, p.NumClients, het, seed+7)
		counts := fed.DistributionMatrix()
		for c := range counts {
			counts[c] = counts[c][:min(10, len(counts[c]))]
		}
		label := het.String()
		if !het.IID {
			label = "Dir(" + label + ")"
		}
		hm := Heatmap{Title: fmt.Sprintf("Figure 3 — client class distribution, %s, skew=%.4f", label, skewScore(fed)), Counts: counts}
		if _, err := hm.WriteTo(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// skewScore averages the squared deviation of each client's class
// distribution from uniform.
func skewScore(fed *data.Federated) float64 {
	uniform := 1.0 / float64(fed.Classes)
	total := 0.0
	n := 0
	for ci := 0; ci < fed.NumClients(); ci++ {
		if fed.Size(ci) == 0 {
			continue
		}
		shard := fed.LeaseShard(ci)
		for _, c := range shard.ClassCounts() {
			d := float64(c)/float64(shard.Len()) - uniform
			total += d * d
		}
		fed.ReleaseShard(ci)
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
