package parsearch

import (
	"testing"
	"time"
)

func TestNilDeadlineNeverExpires(t *testing.T) {
	var d *Deadline
	for i := 0; i < 3; i++ {
		if d.Poll() || d.Expired() {
			t.Fatal("nil deadline expired")
		}
	}
}

func TestPollBudgetExpiresExactlyOnSchedule(t *testing.T) {
	d := PollBudget(3)
	for i := 0; i < 3; i++ {
		if d.Poll() {
			t.Fatalf("poll %d expired early", i)
		}
	}
	if !d.Poll() {
		t.Fatal("poll 4 of a 3-poll budget did not expire")
	}
	// Sticky from here on, including through Expired.
	if !d.Expired() || !d.Poll() {
		t.Fatal("expiry not sticky")
	}
}

func TestPollBudgetNonPositiveAlreadyExpired(t *testing.T) {
	for _, n := range []int{0, -5} {
		d := PollBudget(n)
		if !d.Expired() {
			t.Errorf("PollBudget(%d) not expired at birth", n)
		}
	}
}

func TestExpiredDoesNotConsumePollBudget(t *testing.T) {
	d := PollBudget(1)
	for i := 0; i < 10; i++ {
		if d.Expired() {
			t.Fatal("Expired consumed the poll allowance")
		}
	}
	if d.Poll() {
		t.Fatal("first poll expired")
	}
	if !d.Poll() {
		t.Fatal("second poll of a 1-poll budget did not expire")
	}
}

func TestWallClockDeadline(t *testing.T) {
	base := time.Unix(1000, 0)
	now := base
	d := At(base.Add(50 * time.Millisecond))
	d.SetNow(func() time.Time { return now })
	if d.Expired() {
		t.Fatal("expired before the wall instant")
	}
	now = base.Add(50 * time.Millisecond)
	if !d.Expired() {
		t.Fatal("not expired at the wall instant")
	}
	// Sticky: rolling the clock back does not resurrect it.
	now = base
	if !d.Expired() {
		t.Fatal("wall expiry not sticky")
	}
}

func TestCombinedPollBudgetAndWall(t *testing.T) {
	// Whichever trips first wins; here the poll budget is the binding one.
	base := time.Unix(1000, 0)
	d := PollBudget(2).WithWall(base.Add(time.Hour))
	d.SetNow(func() time.Time { return base })
	if d.Poll() || d.Poll() {
		t.Fatal("expired before the poll budget ran out")
	}
	if !d.Poll() {
		t.Fatal("poll budget exhausted but not expired")
	}
}
