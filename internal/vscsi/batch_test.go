package vscsi

import (
	"testing"

	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
)

// recObserver records per-request observer calls, as copies: the disk
// recycles the Request itself once the command is over.
type recObserver struct {
	issued    []*Request
	completed []*Request
}

func (o *recObserver) OnIssue(r *Request)    { c := *r; o.issued = append(o.issued, &c) }
func (o *recObserver) OnComplete(r *Request) { c := *r; o.completed = append(o.completed, &c) }

// recBatchObserver additionally records whole-burst deliveries.
type recBatchObserver struct {
	recObserver
	batches [][]*Request
}

func (o *recBatchObserver) OnIssueBatch(rs []*Request) { o.batches = append(o.batches, rs) }

// asyncBackend completes every command after a fixed engine delay, like the
// storage models do.
func asyncBackend(eng *simclock.Engine, delay simclock.Time) Backend {
	return BackendFunc(func(r *Request, done func(scsi.Status, scsi.Sense)) {
		eng.After(delay, func(simclock.Time) { done(scsi.StatusGood, scsi.Sense{}) })
	})
}

// TestIssueBatchMatchesLoop pins the batched path to the sequential loop:
// same commands, same IDs, same issue times, same OutstandingAtIssue, same
// completions.
func TestIssueBatchMatchesLoop(t *testing.T) {
	cmds := []scsi.Command{
		scsi.Read(0, 8), scsi.Write(64, 16), scsi.Read(128, 8), scsi.Read(4096, 32),
	}
	run := func(batch bool) (*recObserver, []*Request) {
		eng := simclock.NewEngine()
		d := NewDisk(eng, asyncBackend(eng, simclock.Millisecond), DiskConfig{
			VM: "vm", Name: "d", CapacitySectors: 1 << 20,
		})
		obs := &recObserver{}
		d.AddObserver(obs)
		var rs []*Request
		if batch {
			var err error
			rs, err = d.IssueBatch(cmds, nil)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			for _, c := range cmds {
				r, err := d.Issue(c, nil)
				if err != nil {
					t.Fatal(err)
				}
				rs = append(rs, r)
			}
		}
		eng.Run()
		return obs, rs
	}
	lo, lr := run(false)
	bo, br := run(true)
	if len(lr) != len(br) || len(lo.issued) != len(bo.issued) {
		t.Fatalf("request counts differ: loop %d/%d, batch %d/%d",
			len(lr), len(lo.issued), len(br), len(bo.issued))
	}
	for i := range lr {
		l, b := lr[i], br[i]
		if l.ID != b.ID || l.IssueTime != b.IssueTime ||
			l.OutstandingAtIssue != b.OutstandingAtIssue ||
			l.CompleteTime != b.CompleteTime || l.Status != b.Status {
			t.Errorf("request %d differs: loop %+v batch %+v", i, l, b)
		}
	}
	if lo.issued[2].ID != lr[2].ID || bo.issued[2].ID != br[2].ID {
		t.Error("observer saw requests out of order")
	}
}

// TestIssueBatchDeliversToBatchObserver checks that a BatchObserver gets one
// burst call (and no per-request OnIssue), while plain observers on the same
// disk keep getting per-request calls.
func TestIssueBatchDeliversToBatchObserver(t *testing.T) {
	eng := simclock.NewEngine()
	d := NewDisk(eng, asyncBackend(eng, simclock.Millisecond), DiskConfig{
		VM: "vm", Name: "d", CapacitySectors: 1 << 20,
	})
	batch := &recBatchObserver{}
	plain := &recObserver{}
	d.AddObserver(batch)
	d.AddObserver(plain)
	cmds := []scsi.Command{scsi.Read(0, 8), scsi.Write(8, 8), scsi.Read(16, 8)}
	rs, err := d.IssueBatch(cmds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.batches) != 1 || len(batch.batches[0]) != 3 {
		t.Fatalf("batch observer got %d bursts, want 1 of 3", len(batch.batches))
	}
	if len(batch.issued) != 0 {
		t.Fatalf("batch observer also got %d per-request OnIssue calls", len(batch.issued))
	}
	if len(plain.issued) != 3 {
		t.Fatalf("plain observer got %d OnIssue calls, want 3", len(plain.issued))
	}
	eng.Run()
	if len(batch.completed) != 3 || len(plain.completed) != 3 {
		t.Fatalf("completions: batch %d plain %d, want 3 each",
			len(batch.completed), len(plain.completed))
	}
	for i, r := range rs {
		if r.OutstandingAtIssue != i {
			t.Errorf("request %d OutstandingAtIssue = %d, want %d", i, r.OutstandingAtIssue, i)
		}
	}
}

// TestIssueBatchValidationAndQueueing covers the non-happy paths: invalid
// LBAs complete with CHECK CONDITION (observers included), the MaxActive
// limit queues excess burst members, and a closed disk refuses the burst.
func TestIssueBatchValidationAndQueueing(t *testing.T) {
	eng := simclock.NewEngine()
	d := NewDisk(eng, asyncBackend(eng, simclock.Millisecond), DiskConfig{
		VM: "vm", Name: "d", CapacitySectors: 100, MaxActive: 1,
	})
	obs := &recObserver{}
	d.AddObserver(obs)
	cmds := []scsi.Command{
		scsi.Read(0, 8),
		scsi.Read(200, 8), // out of range
		scsi.Read(8, 8),   // queued behind MaxActive
	}
	rs, err := d.IssueBatch(cmds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs[1].Status != scsi.StatusCheckCondition {
		t.Errorf("out-of-range command status = %v", rs[1].Status)
	}
	if got := d.Inflight(); got != 2 {
		t.Errorf("inflight after batch = %d, want 2", got)
	}
	eng.Run()
	if rs[0].Status != scsi.StatusGood || rs[2].Status != scsi.StatusGood {
		t.Errorf("valid commands did not complete GOOD: %v %v", rs[0].Status, rs[2].Status)
	}
	if len(obs.issued) != 3 || len(obs.completed) != 3 {
		t.Errorf("observer saw %d issues / %d completions, want 3/3",
			len(obs.issued), len(obs.completed))
	}

	if rs, err := d.IssueBatch(nil, nil); err != nil || rs != nil {
		t.Errorf("empty batch: got %v, %v", rs, err)
	}
	d.Close()
	if _, err := d.IssueBatch(cmds, nil); err != ErrClosed {
		t.Errorf("closed disk batch error = %v, want ErrClosed", err)
	}
}
