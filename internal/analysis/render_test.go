package analysis

import (
	"strings"
	"testing"
	"time"

	"dropzero/internal/core"
	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "0s"},
		{45 * time.Second, "45s"},
		{26 * time.Minute, "26m"},
		{26*time.Minute + 30*time.Second, "26m30s"},
		{3 * time.Hour, "3h"},
		{3*time.Hour + 20*time.Minute, "3h20m"},
		{26 * time.Hour, "1d02h"},
		{50 * time.Hour, "2d02h"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestDensityRamp(t *testing.T) {
	if density(0, 100) != ' ' {
		t.Fatal("zero count should render blank")
	}
	if density(100, 100) != '@' {
		t.Fatalf("max count renders %q", density(100, 100))
	}
	// Lower counts render lighter (or equal) glyphs.
	ramp := " .:-=+*#%@"
	lo := strings.IndexByte(ramp, density(1, 10000))
	hi := strings.IndexByte(ramp, density(10000, 10000))
	if lo >= hi {
		t.Fatalf("density not monotone: %d vs %d", lo, hi)
	}
}

func TestRenderHeatmap(t *testing.T) {
	h := &Heatmap{
		Cluster:   "TestSvc",
		RankBins:  10,
		TimeBins:  4,
		MaxRank:   100,
		StartHour: 19,
		EndHour:   21,
		Counts:    [][]int{{5, 0, 0, 0, 0, 0, 0, 0, 0, 0}, {0, 3, 0, 0, 0, 0, 0, 0, 0, 0}, make([]int, 10), make([]int, 10)},
		Total:     8,
	}
	out := RenderHeatmap(h)
	if !strings.Contains(out, "TestSvc") || !strings.Contains(out, "n=8") {
		t.Fatalf("header missing: %q", out)
	}
	if lines := strings.Count(out, "\n"); lines < h.TimeBins+2 {
		t.Fatalf("too few lines: %d", lines)
	}
}

func TestRenderCDF(t *testing.T) {
	th := []time.Duration{0, time.Second, time.Minute}
	pct := []float64{5, 50, 100}
	out := RenderCDF(th, pct, 10)
	if !strings.Contains(out, "0s") || !strings.Contains(out, "100.00%") {
		t.Fatalf("RenderCDF output: %q", out)
	}
}

func TestShareTable(t *testing.T) {
	iv := core.Interval{Lo: 0, Hi: 0, Items: make([]core.DelayResult, 4)}
	f := Fig7{
		Intervals: []core.Interval{iv},
		Shares:    [][]core.Share{{{Key: "A", Value: 0.5}, {Key: "B", Value: 0.25}, {Key: "C", Value: 0.25}}},
	}
	rows := ShareTable(f, []string{"A", "B"})
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Shares["A"] != 0.5 || r.Shares["B"] != 0.25 {
		t.Fatalf("shares = %v", r.Shares)
	}
	// Unselected key C folds into "other".
	if r.Shares["other"] < 0.249 || r.Shares["other"] > 0.251 {
		t.Fatalf("other = %v", r.Shares["other"])
	}
	out := RenderShareTable(rows, []string{"A", "B"})
	if !strings.Contains(out, "50.0%") || !strings.Contains(out, "delay interval") {
		t.Fatalf("table: %q", out)
	}
}

func TestAgeBucket(t *testing.T) {
	cases := map[int]string{0: "1 year", 1: "1 year", 2: "2 years", 5: "5 years", 6: "6+ years", 12: "6+ years"}
	for in, want := range cases {
		if got := AgeBucket(in); got != want {
			t.Errorf("AgeBucket(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestBucketAtLeast(t *testing.T) {
	if !bucketAtLeast("5 years", 5) || !bucketAtLeast("6+ years", 5) {
		t.Fatal("old buckets not matched")
	}
	if bucketAtLeast("4 years", 5) || bucketAtLeast("bogus", 1) {
		t.Fatal("young/unknown buckets matched")
	}
}

// Synthetic Analysis over hand-built observations, exercising Fig generators
// without a simulation.
func TestAnalysisOnSyntheticData(t *testing.T) {
	day := testDayRender()
	var obs []model.Observation
	for i := 0; i < 40; i++ {
		updated := day.AddDays(-35).At(6, 0, i)
		var rereg *model.Rereg
		if i%2 == 0 {
			rereg = &model.Rereg{Time: day.At(19, 0, i/2), RegistrarID: 1000}
		}
		o, err := model.NewObservation(
			string(rune('a'+i%26))+"x"+FormatDuration(time.Duration(i))+".com", day,
			model.PriorRegistration{
				ID: uint64(i + 1), RegistrarID: 1000,
				Created: updated.AddDate(-1-i%5, 0, 0),
				Updated: updated,
				Expiry:  updated.AddDate(0, 0, -30),
			}, rereg, false)
		if err != nil {
			t.Fatal(err)
		}
		obs = append(obs, o)
	}
	a := New(Input{
		Observations:     obs,
		Registrars:       []model.Registrar{{IANAID: 1000, Name: "R", Contact: model.Contact{Org: "R Inc", Email: "x@r.example", Phone: "+1.5551234"}}},
		MinIntervalCount: 5,
	})
	if len(a.Days) != 1 {
		t.Fatalf("days = %d", len(a.Days))
	}
	if f := a.Fig5CDF(); f.Stats.PctAt24h <= 0 {
		t.Fatal("Fig5 empty")
	}
	if f := a.Fig7MarketShare(); len(f.Intervals) == 0 {
		t.Fatal("Fig7 empty")
	}
	if h := a.Fig4Heatmap(""); h.Total == 0 {
		t.Fatal("Fig4 empty")
	}
	rows := a.Fig1()
	if len(rows) != 1 || rows[0].Deleted != 40 {
		t.Fatalf("Fig1 = %+v", rows)
	}
}

func testDayRender() simtime.Day {
	return simtime.Day{Year: 2018, Month: time.January, Dom: 2}
}

func TestCanonicalService(t *testing.T) {
	cases := []struct {
		label string
		want  string
		ok    bool
	}{
		{"dropcatchcom", "DropCatch", true},
		{"snapnames", "SnapNames", true},
		{"xin net", "Xinnet", true},
		{"1api", "1API", true},
		{"registrar 1400", "", false},
	}
	for _, c := range cases {
		got, ok := canonicalService(c.label)
		if ok != c.ok || got != c.want {
			t.Errorf("canonicalService(%q) = %q, %v; want %q, %v", c.label, got, ok, c.want, c.ok)
		}
	}
}

func TestRenderTimeline(t *testing.T) {
	per := make([]float64, 24*60)
	per[19*60] = 10
	per[19*60+30] = 5
	out := RenderTimeline(per, 18*60+30, 20*60)
	if out == "" {
		t.Fatal("empty timeline")
	}
	if !strings.Contains(out, "█") {
		t.Fatal("peak glyph missing")
	}
	if !strings.Contains(out, "|19") {
		t.Fatalf("hour axis missing: %q", out)
	}
	if got := RenderTimeline(per, 100, 50); got != "" {
		t.Fatal("inverted range produced output")
	}
}
