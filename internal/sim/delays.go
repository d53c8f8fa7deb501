package sim

import (
	"bufio"
	"cmp"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/zone"
)

// ZoneDelay is one re-registered name's ground-truth delay, labelled with
// the zone that dropped it and that zone's release policy — the row format
// of the per-policy delay-CDF figure (paced vs instant vs randomized).
type ZoneDelay struct {
	Zone   string
	Policy zone.PolicyKind
	Name   string
	Delay  time.Duration
}

// ZoneDelays extracts every claimed name's re-registration delay from the
// study's ground truth, labelled by hosting zone, sorted by (zone, delay,
// name). Unclaimed names are excluded — the CDF is over re-registrations,
// like the paper's Figure 5.
func (r *Result) ZoneDelays() []ZoneDelay {
	policyOf := make(map[string]zone.PolicyKind, len(r.Zones))
	zoneOf := make(map[string]string)
	for _, z := range r.Zones {
		policyOf[z.Name] = z.Policy
		for _, t := range z.TLDs {
			zoneOf[string(t)] = z.Name
		}
	}
	var out []ZoneDelay
	for day, truths := range r.Truths {
		events := r.Deletions[day]
		for k, truth := range truths {
			_, delay, ok := truth.Claim()
			if !ok {
				continue
			}
			name := events[k].Name()
			tld, ok := model.TLDOf(name)
			if !ok {
				continue
			}
			zn, ok := zoneOf[string(tld)]
			if !ok {
				continue
			}
			out = append(out, ZoneDelay{Zone: zn, Policy: policyOf[zn], Name: name, Delay: delay})
		}
	}
	slices.SortFunc(out, func(a, b ZoneDelay) int {
		if c := cmp.Compare(a.Zone, b.Zone); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Delay, b.Delay); c != 0 {
			return c
		}
		return cmp.Compare(a.Name, b.Name)
	})
	return out
}

var zoneDelaysHeader = []string{"zone", "policy", "name", "delay_seconds"}

// WriteZoneDelaysCSV writes rows in the dropsim/dropanalyze interchange
// format: zone,policy,name,delay_seconds.
func WriteZoneDelaysCSV(w io.Writer, rows []ZoneDelay) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(strings.Join(zoneDelaysHeader, ",") + "\n"); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := fmt.Fprintf(bw, "%s,%s,%s,%s\n", row.Zone, row.Policy, row.Name,
			strconv.FormatFloat(row.Delay.Seconds(), 'f', -1, 64)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadZoneDelaysCSV reads WriteZoneDelaysCSV's format back.
func ReadZoneDelaysCSV(r io.Reader) ([]ZoneDelay, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 || !slices.Equal(recs[0], zoneDelaysHeader) {
		return nil, fmt.Errorf("sim: zone-delay CSV missing header %v", zoneDelaysHeader)
	}
	out := make([]ZoneDelay, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		secs, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return nil, fmt.Errorf("sim: zone-delay CSV row %q: %w", rec, err)
		}
		out = append(out, ZoneDelay{
			Zone:   rec[0],
			Policy: zone.PolicyKind(rec[1]),
			Name:   rec[2],
			Delay:  time.Duration(secs * float64(time.Second)),
		})
	}
	return out, nil
}
