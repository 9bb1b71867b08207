package obs

import (
	"sync"
	"testing"
)

func TestFlightRecorderWraparound(t *testing.T) {
	var f FlightRecorder
	if f.Len() != 0 {
		t.Fatalf("empty ring Len = %d", f.Len())
	}
	const total = FlightRecords*2 + 7
	for i := 1; i <= total; i++ {
		f.Record(GateRecord{
			Ordinal:  uint64(i),
			Kind:     RecordGate,
			Task:     int64(i * 10),
			Rejected: i%2 == 0,
			QueueNs:  int64(i),
			VerifyNs: int64(i * 2),
			AtNs:     int64(i * 3),
		})
	}
	if f.Len() != FlightRecords {
		t.Fatalf("full ring Len = %d, want %d", f.Len(), FlightRecords)
	}
	got := f.Snapshot(nil)
	if len(got) != FlightRecords {
		t.Fatalf("snapshot holds %d records, want %d", len(got), FlightRecords)
	}
	for i, r := range got {
		want := total - FlightRecords + 1 + i // oldest-first
		if r.Ordinal != uint64(want) {
			t.Fatalf("record %d: ordinal %d, want %d", i, r.Ordinal, want)
		}
		if r.Task != int64(want*10) || r.QueueNs != int64(want) ||
			r.VerifyNs != int64(want*2) || r.AtNs != int64(want*3) {
			t.Fatalf("record %d round-trip mismatch: %+v", i, r)
		}
		if r.Rejected != (want%2 == 0) || r.Kind != RecordGate {
			t.Fatalf("record %d flags mismatch: %+v", i, r)
		}
	}
}

// TestFlightRecorderConcurrentReaders hammers the ring from one writer and
// several snapshotting readers; under -race this is the proof the
// lock-free ring is data-race-free, and every returned record must be
// internally consistent (the fields of ONE Record call, checkable because
// each record's fields are derived from its ordinal).
func TestFlightRecorderConcurrentReaders(t *testing.T) {
	var f FlightRecorder
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []GateRecord
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf = f.Snapshot(buf)
				for _, rec := range buf {
					if rec.QueueNs != int64(rec.Ordinal) || rec.VerifyNs != int64(rec.Ordinal*2) {
						t.Errorf("torn record: %+v", rec)
						return
					}
				}
			}
		}()
	}
	for i := 1; i <= 200_000; i++ {
		f.Record(GateRecord{Ordinal: uint64(i), Kind: RecordGate,
			QueueNs: int64(i), VerifyNs: int64(i * 2)})
	}
	close(stop)
	wg.Wait()
}

// TestStampPathZeroAlloc is the obs half of the ingest path's
// zero-allocation guarantee: a stamp, three histogram observations, a
// counter bump and a flight record — the exact per-gate obs work the
// executor does — allocate nothing.
func TestStampPathZeroAlloc(t *testing.T) {
	var o SessionObs
	n := testing.AllocsPerRun(1000, func() {
		t0 := Nanotime()
		o.QueueWait.Observe(1500)
		o.Verify.Observe(Nanotime() - t0)
		o.Flush.Observe(300)
		ord := o.Gates.Add(1)
		o.Flight.Record(GateRecord{
			Ordinal: uint64(ord), Kind: RecordGate, Task: 7,
			QueueNs: 1500, VerifyNs: 10, AtNs: t0,
		})
		o.LastDeadlocked.Store(false)
	})
	if n != 0 {
		t.Fatalf("obs stamp path allocates %.1f per gate, want 0", n)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[uint8]string{
		RecordGate: "gate", RecordCheckpoint: "checkpoint",
		RecordReport: "report", 99: "unknown",
	} {
		if got := KindString(k); got != want {
			t.Errorf("KindString(%d) = %q, want %q", k, got, want)
		}
	}
}
