package measure

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// mustObs packs a test row whose values are all representable.
func mustObs(t testing.TB, name string, day simtime.Day, prior model.PriorRegistration, rereg *model.Rereg, malicious bool) model.Observation {
	t.Helper()
	o, err := model.NewObservation(name, day, prior, rereg, malicious)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// randomObservation builds a structurally valid observation from a seed.
func randomObservation(t testing.TB, rng *rand.Rand, i int) model.Observation {
	day := simtime.Day{Year: 2018, Month: time.Month(1 + rng.Intn(12)), Dom: 1 + rng.Intn(28)}
	updated := day.AddDays(-35).At(rng.Intn(24), rng.Intn(60), rng.Intn(60))
	prior := model.PriorRegistration{
		ID:          uint64(rng.Int63n(1 << 40)),
		RegistrarID: rng.Intn(5000),
		Created:     updated.AddDate(-1-rng.Intn(10), 0, 0),
		Updated:     updated,
		Expiry:      updated.AddDate(0, 0, -rng.Intn(45)),
	}
	var rereg *model.Rereg
	malicious := false
	if rng.Intn(2) == 0 {
		rereg = &model.Rereg{
			Time:        day.At(19, 0, 0).Add(time.Duration(rng.Intn(86400)) * time.Second),
			RegistrarID: rng.Intn(5000),
		}
		malicious = rng.Intn(10) == 0
	}
	return mustObs(t, fmt.Sprintf("p%d-%d.com", rng.Intn(1<<20), i), day, prior, rereg, malicious)
}

// Property: WriteCSV∘ReadCSV is the identity on arbitrary valid datasets —
// rows are plain values, so the identity is ==.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := make([]model.Observation, rng.Intn(50))
		for i := range in {
			in[i] = randomObservation(t, rng, i)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, in); err != nil {
			return false
		}
		out, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		return slices.EqualFunc(in, out, model.Observation.Equal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// FuzzReadCSV: whatever ReadCSV accepts, WriteCSV prints in a form ReadCSV
// reads back to the same rows and WriteCSV prints identically again — an
// accepted file never holds a value the dataset row rounds, drops or cannot
// reproduce.
func FuzzReadCSV(f *testing.F) {
	header := strings.Join(csvHeader, ",") + "\n"
	rng := rand.New(rand.NewSource(1))
	var valid bytes.Buffer
	if err := WriteCSV(&valid, []model.Observation{randomObservation(f, rng, 0), randomObservation(f, rng, 1), randomObservation(f, rng, 2)}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(header))
	for _, row := range []string{
		"a.com,com,2018-01-02,7,1000,2016-12-01T00:00:00Z,2017-11-28T06:00:00Z,2017-10-01T00:00:00Z,2018-01-02T19:00:07Z,2000,true",
		"a.com,com,2018-01-02,7,1000,2016-12-01T00:00:00Z,2017-11-28T06:00:00Z,2017-10-01T00:00:00Z,,,false",
		// Refused: tld not the name's suffix, fractional second, offset that
		// leaves four-digit years, registrar beyond 32 bits, label or
		// registrar without a re-registration.
		"a.com,net,2018-01-02,7,1000,2016-12-01T00:00:00Z,2017-11-28T06:00:00Z,2017-10-01T00:00:00Z,,,false",
		"a.com,com,2018-01-02,7,1000,2016-12-01T00:00:00.5Z,2017-11-28T06:00:00Z,2017-10-01T00:00:00Z,,,false",
		"a.com,com,2018-01-02,7,1000,0000-01-01T00:00:00+01:00,2017-11-28T06:00:00Z,2017-10-01T00:00:00Z,,,false",
		"a.com,com,2018-01-02,7,2147483648,2016-12-01T00:00:00Z,2017-11-28T06:00:00Z,2017-10-01T00:00:00Z,,,false",
		"a.com,com,2018-01-02,7,1000,2016-12-01T00:00:00Z,2017-11-28T06:00:00Z,2017-10-01T00:00:00Z,,,true",
		"a.com,com,2018-01-02,7,1000,2016-12-01T00:00:00Z,2017-11-28T06:00:00Z,2017-10-01T00:00:00Z,,2000,false",
		// Accepted in another spelling than WriteCSV's.
		"\"A b\r.Com\",Com,2018-01-02,007,+5,2016-12-01T01:00:00+01:00,2017-11-28T06:00:00Z,2017-10-01T00:00:00Z,2018-01-02T19:00:07-00:00,+3,T",
		// Refused: RFC 3339's first and last years, which no row stores.
		"nodot,,1970-01-02,0,0,0000-01-01T00:00:00Z,9999-12-31T23:59:59Z,2017-10-01T00:00:00Z,,,0",
		// The ends of what a row stores, and the zero time: accepted.
		"nodot,,1970-01-02,0,0,1970-01-01T00:00:00Z,2106-02-07T06:28:14Z,0001-01-01T00:00:00Z,2106-02-07T06:28:14Z,0,0",
		"nodot,,2149-06-06,0,65535,1970-01-01T00:00:00Z,2106-02-07T06:28:14Z,0001-01-01T00:00:00Z,2106-02-07T06:28:14Z,65535,0",
		"a.com,com,2018-01-02,7,1,2016-12-01T00:00:00Z,2017-11-28T06:00:00Z,2017-10-01T00:00:00Z,2018-01-02T19:00:07Z,1,false",
		// Refused: Unix -1, one second past the end, a 999 ns fraction.
		"a.com,com,2018-01-02,7,1000,1969-12-31T23:59:59Z,2017-11-28T06:00:00Z,2017-10-01T00:00:00Z,,,false",
		"a.com,com,2018-01-02,7,1000,2016-12-01T00:00:00Z,2106-02-07T06:28:15Z,2017-10-01T00:00:00Z,,,false",
		"a.com,com,2018-01-02,7,1000,2016-12-01T00:00:00Z,2017-11-28T06:00:00Z,2017-10-01T00:00:00Z,2106-02-07T06:28:15Z,2000,false",
		"a.com,com,2018-01-02,7,1000,2016-12-01T00:00:00Z,2017-11-28T06:00:00Z,2017-10-01T00:00:00.000000999Z,,,false",
		// Refused: registrar 65 536 and a negative one on either side, day
		// numbers 0, -1 and 65 536, 30 February, a day in year 0.
		"a.com,com,2018-01-02,7,65536,2016-12-01T00:00:00Z,2017-11-28T06:00:00Z,2017-10-01T00:00:00Z,,,false",
		"a.com,com,2018-01-02,7,-3,2016-12-01T00:00:00Z,2017-11-28T06:00:00Z,2017-10-01T00:00:00Z,,,false",
		"a.com,com,2018-01-02,7,1000,2016-12-01T00:00:00Z,2017-11-28T06:00:00Z,2017-10-01T00:00:00Z,2018-01-02T19:00:07Z,65536,false",
		"a.com,com,2018-01-02,7,1000,2016-12-01T00:00:00Z,2017-11-28T06:00:00Z,2017-10-01T00:00:00Z,2018-01-02T19:00:07Z,-65535,false",
		"a.com,com,1970-01-01,7,1000,2016-12-01T00:00:00Z,2017-11-28T06:00:00Z,2017-10-01T00:00:00Z,,,false",
		"a.com,com,1969-12-31,7,1000,2016-12-01T00:00:00Z,2017-11-28T06:00:00Z,2017-10-01T00:00:00Z,,,false",
		"a.com,com,2149-06-07,7,1000,2016-12-01T00:00:00Z,2017-11-28T06:00:00Z,2017-10-01T00:00:00Z,,,false",
		"a.com,com,2018-02-30,7,1000,2016-12-01T00:00:00Z,2017-11-28T06:00:00Z,2017-10-01T00:00:00Z,,,false",
		"nodot,,0000-01-01,0,0,1970-01-01T00:00:00Z,2106-02-07T06:28:14Z,0001-01-01T00:00:00Z,,,0",
	} {
		f.Add([]byte(header + row + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		obs, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteCSV(&first, obs); err != nil {
			t.Fatalf("WriteCSV of accepted rows: %v", err)
		}
		again, err := ReadCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadCSV refuses WriteCSV's output: %v\n%s", err, first.Bytes())
		}
		if !slices.EqualFunc(obs, again, model.Observation.Equal) {
			t.Fatalf("rows changed on the way through WriteCSV:\n%+v\n%+v", obs, again)
		}
		var second bytes.Buffer
		if err := WriteCSV(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteCSV∘ReadCSV is not the identity on:\n%s\ngot:\n%s", first.Bytes(), second.Bytes())
		}
	})
}
