package registry

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// TestApplyBatchMatchesApply is the batched-replay differential test: the
// same captured mutation stream fed through ApplyBatch — at every batching
// the replication follower might use, including batch boundaries landing
// mid-shard-group and a barrier MutAddRegistrar in the stream — must yield
// a store indistinguishable from one built record-at-a-time, generation
// counter included, with the shard groups applied on one goroutine and on
// four.
func TestApplyBatchMatchesApply(t *testing.T) {
	const days = 14
	start := simtime.Day{Year: 2018, Month: time.January, Dom: 8}
	cap := &captureJournal{}
	_, orig := runEngineOn(t, 11, days, false, 0, cap)
	if len(cap.records) < 500 {
		t.Fatalf("workout too quiet: only %d journal records", len(cap.records))
	}
	want := dumpStore(orig, start, days+40)

	rng := rand.New(rand.NewSource(7))
	batchings := [][]int{
		{1},         // degenerate: ApplyBatch == Apply
		{3},         // tiny fixed batches
		{64}, {256}, // group-commit sized
		{len(cap.records)}, // the whole stream in one batch
		{0},                // sentinel: random batch sizes 1..300
	}
	for _, sizes := range batchings {
		name := fmt.Sprintf("batch%d", sizes[0])
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				re := NewStore(simtime.NewSimClock(start.At(0, 0, 0)))
				for off := 0; off < len(cap.records); {
					n := sizes[0]
					if n == 0 {
						n = 1 + rng.Intn(300)
					}
					if off+n > len(cap.records) {
						n = len(cap.records) - off
					}
					if err := re.ApplyBatch(cap.records[off:off+n], workers); err != nil {
						t.Fatalf("workers %d, batch at %d: %v", workers, off, err)
					}
					off += n
				}
				diffDumps(t, "original", fmt.Sprintf("%s/workers%d", name, workers), want, dumpStore(re, start, days+40))
			}
		})
	}
}

// TestApplyBatchRegistrarBarrier pins the barrier semantics: a registrar
// record in the middle of a batch must not be reordered around the domain
// records surrounding it, and the generation counter must advance exactly
// once per record.
func TestApplyBatchRegistrarBarrier(t *testing.T) {
	start := simtime.Day{Year: 2018, Month: time.January, Dom: 8}
	at := start.At(9, 0, 0)
	ms := []Mutation{
		{Kind: MutAddRegistrar, Registrar: model.Registrar{IANAID: 901, Name: "Reg A"}},
		{Kind: MutCreate, ID: 1, Name: "barrier-a.com", RegistrarID: 901, Created: at, Updated: at, Expiry: at.AddDate(1, 0, 0)},
		{Kind: MutAddRegistrar, Registrar: model.Registrar{IANAID: 902, Name: "Reg B"}},
		{Kind: MutCreate, ID: 2, Name: "barrier-b.com", RegistrarID: 902, Created: at, Updated: at, Expiry: at.AddDate(1, 0, 0)},
		{Kind: MutTransfer, Name: "barrier-a.com", RegistrarID: 902, Updated: at.Add(time.Hour)},
	}
	for _, workers := range []int{1, 4} {
		s := NewStore(simtime.NewSimClock(start.At(0, 0, 0)))
		if err := s.ApplyBatch(ms, workers); err != nil {
			t.Fatal(err)
		}
		if got := s.Generation(); got != uint64(len(ms)) {
			t.Errorf("workers %d: generation after batch = %d, want %d", workers, got, len(ms))
		}
		d, err := s.Get("barrier-a.com")
		if err != nil {
			t.Fatal(err)
		}
		if d.RegistrarID != 902 {
			t.Errorf("workers %d: barrier-a.com sponsor = %d, want transfer to 902 applied after create", workers, d.RegistrarID)
		}
	}
}

// syntheticStream builds a replication-shaped mutation stream: seeds, then
// interleaved touches, lifecycle state changes and purges across enough
// names to spread over every shard. Deterministic, so benchmark runs are
// comparable.
func syntheticStream(n int) []Mutation {
	start := simtime.Day{Year: 2018, Month: time.January, Dom: 8}
	rng := rand.New(rand.NewSource(99))
	names := n / 4
	if names < 64 {
		names = 64
	}
	ms := make([]Mutation, 0, n+names+1)
	ms = append(ms, Mutation{Kind: MutAddRegistrar, Registrar: model.Registrar{IANAID: 900, Name: "Bench Reg"}})
	for i := 0; i < names; i++ {
		at := start.At(1, 0, i%60)
		ms = append(ms, Mutation{
			Kind: MutSeed, ID: uint64(i + 1), Name: fmt.Sprintf("repl-bench-%06d.com", i),
			RegistrarID: 900, Created: at, Updated: at, Expiry: at.AddDate(1, 0, 0),
			Status: model.StatusActive,
		})
	}
	for len(ms) < n+names+1 {
		i := rng.Intn(names)
		name := fmt.Sprintf("repl-bench-%06d.com", i)
		at := start.At(2, rng.Intn(60), rng.Intn(60))
		switch rng.Intn(10) {
		case 0:
			ms = append(ms, Mutation{Kind: MutSetState, Name: name, Status: model.StatusAutoRenew, Updated: at})
		case 1:
			ms = append(ms, Mutation{Kind: MutRenew, Name: name, Updated: at, Expiry: at.AddDate(1, 0, 0)})
		default:
			ms = append(ms, Mutation{Kind: MutTouch, Name: name, Updated: at})
		}
	}
	return ms
}

// BenchmarkReplicaApply measures the replica apply loop: records/sec
// through ApplyBatch at follower batch sizes, against record-at-a-time
// Apply as the baseline. The replication acceptance floor is 200k
// records/sec batched — a replica must absorb the Drop-second write burst
// without falling behind.
func BenchmarkReplicaApply(b *testing.B) {
	const streamLen = 200_000
	stream := syntheticStream(streamLen)
	start := simtime.Day{Year: 2018, Month: time.January, Dom: 8}
	for _, batch := range []int{1, 64, 512} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				s := NewStore(simtime.NewSimClock(start.At(0, 0, 0)))
				b.StartTimer()
				t0 := time.Now()
				for off := 0; off < len(stream); off += batch {
					end := off + batch
					if end > len(stream) {
						end = len(stream)
					}
					if err := s.ApplyBatch(stream[off:end], 1); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(stream))/time.Since(t0).Seconds(), "records/sec")
			}
		})
	}
}
