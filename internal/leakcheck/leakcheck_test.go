package leakcheck

import (
	"runtime"
	"strings"
	"testing"
)

// parked blocks on a channel nobody closes until the test lets it go; its
// name is what the report must show.
func parked(release <-chan struct{}) { <-release }

func TestCheckReportsAParkedGoroutineAndNotAFinishedOne(t *testing.T) {
	before := runtime.NumGoroutine()

	done := make(chan struct{})
	go func() { close(done) }()
	<-done
	if err := Check(before); err != nil {
		t.Fatalf("a goroutine that has finished was reported: %v", err)
	}

	release := make(chan struct{})
	go parked(release)
	err := Check(before)
	close(release)
	if err == nil {
		t.Fatal("a goroutine parked on a channel nobody closes was not reported")
	}
	if !strings.Contains(err.Error(), "leakcheck.parked") || !strings.Contains(err.Error(), "chan receive") {
		t.Errorf("the report does not show the parked goroutine's stack:\n%v", err)
	}
	if err := Check(before); err != nil {
		t.Fatalf("the released goroutine is still reported: %v", err)
	}
}
