package measure

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// csvHeader is the dataset's on-disk column layout.
var csvHeader = []string{
	"name", "tld", "delete_day",
	"prior_id", "prior_registrar", "prior_created", "prior_updated", "prior_expiry",
	"rereg_time", "rereg_registrar", "malicious",
}

const csvTime = time.RFC3339

// WriteCSV persists a dataset. Equal datasets give equal bytes, and ReadCSV
// accepts exactly the files whose rows WriteCSV reproduces: reading a
// written file back and writing it again is the identity.
func WriteCSV(w io.Writer, obs []model.Observation) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("measure: write CSV header: %w", err)
	}
	for i := range obs {
		o := &obs[i]
		rec := []string{
			o.Name(),
			string(o.TLD()),
			o.DeleteDay().String(),
			strconv.FormatUint(o.PriorID(), 10),
			strconv.Itoa(o.PriorRegistrar()),
			o.PriorCreated().Format(csvTime),
			o.PriorUpdated().Format(csvTime),
			o.PriorExpiry().Format(csvTime),
			"", "", "false",
		}
		if o.Reregistered() {
			rec[8] = o.ReregTime().Format(csvTime)
			rec[9] = strconv.Itoa(o.ReregRegistrar())
			rec[10] = strconv.FormatBool(o.Malicious())
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("measure: write CSV row for %s: %w", o.Name(), err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV loads a dataset written by WriteCSV. A file WriteCSV could not
// have written is refused, not rounded: a header that is not the dataset's,
// a tld column that is not the name's suffix, an instant with a sub-second
// part or outside what a row stores (1970-01-01T00:00:00Z through
// 2106-02-07T06:28:14Z, and the zero time 0001-01-01T00:00:00Z), a delete day
// outside 1970-01-02 through 2149-06-06, a registrar ID outside 0 through
// 65535, a registrar or label on a row without a re-registration — each with
// the line it stands on.
func ReadCSV(r io.Reader) ([]model.Observation, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("measure: read CSV header: %w", err)
	}
	if !slices.Equal(header, csvHeader) {
		return nil, fmt.Errorf("measure: unexpected CSV header %v", header)
	}
	var out []model.Observation
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("measure: read CSV line %d: %w", line, err)
		}
		o, err := parseRow(rec)
		if err != nil {
			return nil, fmt.Errorf("measure: CSV line %d: %w", line, err)
		}
		out = append(out, o)
	}
}

// parseInstant reads one timestamp column: RFC 3339 at whole seconds, any
// offset. Whether the row can hold the instant is NewObservation's call.
func parseInstant(field, s string) (time.Time, error) {
	t, err := time.Parse(csvTime, s)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad %s %q: %w", field, s, err)
	}
	t = t.UTC()
	if t.Nanosecond() != 0 {
		return time.Time{}, fmt.Errorf("bad %s %q: sub-second precision", field, s)
	}
	return t, nil
}

func parseRow(rec []string) (model.Observation, error) {
	// rec's fields are slices of one string holding the whole line; the row
	// keeps the name alone.
	name := strings.Clone(rec[0])
	if tld, _ := model.TLDOf(name); rec[1] != string(tld) {
		return model.Observation{}, fmt.Errorf("tld %q is not the suffix of %q", rec[1], name)
	}
	day, err := simtime.ParseDay(rec[2])
	if err != nil {
		return model.Observation{}, fmt.Errorf("bad delete_day %q: %w", rec[2], err)
	}
	var prior model.PriorRegistration
	if prior.ID, err = strconv.ParseUint(rec[3], 10, 64); err != nil {
		return model.Observation{}, fmt.Errorf("bad prior_id %q: %w", rec[3], err)
	}
	if prior.RegistrarID, err = strconv.Atoi(rec[4]); err != nil {
		return model.Observation{}, fmt.Errorf("bad prior_registrar %q: %w", rec[4], err)
	}
	if prior.Created, err = parseInstant("prior_created", rec[5]); err != nil {
		return model.Observation{}, err
	}
	if prior.Updated, err = parseInstant("prior_updated", rec[6]); err != nil {
		return model.Observation{}, err
	}
	if prior.Expiry, err = parseInstant("prior_expiry", rec[7]); err != nil {
		return model.Observation{}, err
	}
	malicious, err := strconv.ParseBool(rec[10])
	if err != nil {
		return model.Observation{}, fmt.Errorf("bad malicious %q: %w", rec[10], err)
	}
	if rec[8] == "" {
		if rec[9] != "" {
			return model.Observation{}, fmt.Errorf("rereg_registrar %q without a rereg_time", rec[9])
		}
		return model.NewObservation(name, day, prior, nil, malicious)
	}
	var rereg model.Rereg
	if rereg.Time, err = parseInstant("rereg_time", rec[8]); err != nil {
		return model.Observation{}, err
	}
	if rereg.RegistrarID, err = strconv.Atoi(rec[9]); err != nil {
		return model.Observation{}, fmt.Errorf("bad rereg_registrar %q: %w", rec[9], err)
	}
	return model.NewObservation(name, day, prior, &rereg, malicious)
}
