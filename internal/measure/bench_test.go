package measure

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"dropzero/internal/dropscope"
	"dropzero/internal/model"
	"dropzero/internal/rdap"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// BenchmarkCollectDaily is one study day's collection over bound clients: a
// five-day pending-delete list of 10 000 names, 8 000 of them tracked since
// yesterday's list. The day merges in the 2 000 names new to the window and
// looks up the 2 000 that entered the three-day lookup window. Tracking a
// name allocates nothing; each resolved prior is one allocation. The
// collector runs between collections, never during one: a GC cycle allocates
// too, and CI gates allocs/op exactly.
func BenchmarkCollectDaily(b *testing.B) {
	const perDay = 2000
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
	clock := simtime.NewSimClock(day.AddDays(-1).At(10, 0, 0))
	store := registry.NewStore(clock)
	store.AddRegistrar(model.Registrar{IANAID: 1000})
	for i := 0; i < dropscope.LookaheadDays*perDay; i++ {
		deleteDay := day.AddDays(i % dropscope.LookaheadDays)
		updated := deleteDay.AddDays(-35).At(6, 30, i%60)
		if _, err := store.SeedAt(fmt.Sprintf("bench%05d.com", i), 1000, updated.AddDate(-2, 0, 0), updated,
			updated.AddDate(0, 0, -30), model.StatusPendingDelete, deleteDay); err != nil {
			b.Fatal(err)
		}
	}
	newPipeline := func() *Pipeline {
		return &Pipeline{
			Lists:       dropscope.NewBoundClient(dropscope.NewServer(store)),
			RDAP:        rdap.NewBoundClient(rdap.NewServer(store, rdap.ServerConfig{})),
			TLDFilter:   model.COM,
			Parallelism: 1,
		}
	}
	ctx := context.Background()
	yesterday := newPipeline()
	if err := yesterday.CollectDaily(ctx, day.AddDays(-1)); err != nil {
		b.Fatal(err)
	}
	state := yesterday.State()
	clock.Set(day.At(10, 0, 0))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := newPipeline()
		if err := p.ApplyDelta(&state); err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		b.StartTimer()
		if err := p.CollectDaily(ctx, day); err != nil {
			b.Fatal(err)
		}
		if st := p.Stats(); st.ListEntries != 5*perDay || st.Lookups != 4*perDay {
			b.Fatalf("stats = %+v", st)
		}
	}
}
