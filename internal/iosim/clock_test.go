package iosim

import (
	"sync"
	"testing"
	"time"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(3 * time.Second)
	c.Advance(500 * time.Millisecond)
	if got, want := c.Now(), 3500*time.Millisecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestClockAdvanceNegativeIgnored(t *testing.T) {
	c := NewClock()
	c.Advance(time.Second)
	c.Advance(-time.Hour)
	if got := c.Now(); got != time.Second {
		t.Fatalf("Now() = %v, want 1s after negative advance ignored", got)
	}
}

func TestClockSetAndReset(t *testing.T) {
	c := NewClock()
	c.Advance(10 * time.Second)
	c.Set(4 * time.Second)
	if got := c.Now(); got != 4*time.Second {
		t.Fatalf("Set: Now() = %v, want 4s", got)
	}
	c.Set(-time.Second)
	if got := c.Now(); got != 0 {
		t.Fatalf("Set negative: Now() = %v, want 0", got)
	}
	c.Advance(time.Second)
	c.Reset()
	if got := c.Now(); got != 0 {
		t.Fatalf("Reset: Now() = %v, want 0", got)
	}
}

func TestClockSeconds(t *testing.T) {
	c := NewClock()
	c.Advance(1500 * time.Millisecond)
	if got := c.Seconds(); got != 1.5 {
		t.Fatalf("Seconds() = %v, want 1.5", got)
	}
}

func TestClockString(t *testing.T) {
	c := NewClock()
	c.Advance(2 * time.Second)
	if got, want := c.String(), "t=2.000s"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestClockConcurrentAdvance(t *testing.T) {
	c := NewClock()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Now(), time.Duration(workers*per)*time.Microsecond; got != want {
		t.Fatalf("concurrent Now() = %v, want %v", got, want)
	}
}

// Advance, Now and Set from many goroutines at once (the serving plane: two
// TRAIN jobs and a double-buffer rewind on one device clock). Run under
// -race. Set may discard concurrent advances, by design, so the final value
// is only bounded: at least the last Set, at most that plus every advance.
func TestClockConcurrentAdvanceNowSet(t *testing.T) {
	c := NewClock()
	const advancers, per, base = 4, 2000, time.Hour
	const total = advancers * per * time.Microsecond
	var wg sync.WaitGroup
	for i := 0; i < advancers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Advance(time.Microsecond)
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if now := c.Now(); now < 0 || now > base+total {
					t.Errorf("Now() = %v outside [0, %v]", now, base+total)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < per; j++ {
			c.Set(base)
		}
	}()
	wg.Wait()
	if now := c.Now(); now < base || now > base+total {
		t.Fatalf("final Now() = %v outside [%v, %v]", now, base, base+total)
	}
}

// The clock is charged once per tuple by the training loops: it must not
// allocate.
func TestClockAdvanceDoesNotAllocate(t *testing.T) {
	c := NewClock()
	if n := testing.AllocsPerRun(1000, func() { c.Advance(time.Nanosecond) }); n != 0 {
		t.Fatalf("Clock.Advance allocates %v times per call, want 0", n)
	}
}
