package faultinject

import (
	"context"
	"testing"
	"time"
)

func TestParseRules(t *testing.T) {
	rules, err := ParseRules(
		"point=history.append,from=2,partial=25,kill; point=service.fit,from=1,count=1,period=7,err=boom,delay=5ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("parsed %d rules, want 2", len(rules))
	}
	r := rules[0]
	if r.Point != "history.append" || r.From != 2 || r.PartialBytes != 25 || !r.Kill || r.Err != nil {
		t.Errorf("rule 0 = %+v", r)
	}
	r = rules[1]
	if r.Point != "service.fit" || r.From != 1 || r.Count != 1 || r.Period != 7 ||
		r.Err == nil || r.Err.Error() != "boom" || r.Delay != 5*time.Millisecond || r.Kill {
		t.Errorf("rule 1 = %+v", r)
	}
}

func TestParseRulesRejectsMalformedSchedules(t *testing.T) {
	for _, spec := range []string{
		"",                                // empty
		"from=2,kill",                     // missing point
		"point=history.append",            // no effect
		"point=history.append,nope=1",     // unknown field
		"point=history.append,kill=yes",   // kill takes no value
		"point=history.append,from=x,err", // bad int
	} {
		if _, err := ParseRules(spec); err == nil {
			t.Errorf("ParseRules(%q) accepted a malformed schedule", spec)
		}
	}
}

func TestEnableFromEnv(t *testing.T) {
	// Unset: stays disabled.
	t.Setenv(EnvVar, "")
	if on, err := EnableFromEnv(); on || err != nil {
		t.Fatalf("empty env: on=%v err=%v", on, err)
	}
	if enabled() {
		t.Fatal("injector enabled by empty env")
	}

	// Malformed: loud error, still disabled.
	t.Setenv(EnvVar, "point=")
	if on, err := EnableFromEnv(); on || err == nil {
		t.Fatalf("malformed env: on=%v err=%v, want error", on, err)
	}

	// Valid: the schedule replays.
	t.Setenv(EnvVar, "point=test.env,from=2,err=synthetic")
	t.Setenv(EnvSeedVar, "7")
	on, err := EnableFromEnv()
	if !on || err != nil {
		t.Fatalf("EnableFromEnv: on=%v err=%v", on, err)
	}
	defer func() { Enable(nil) }() // drop the env injector, discard its restore
	if f := Fire("test.env"); f != nil {
		t.Fatalf("hit 1 fired %+v, want nil (from=2)", f)
	}
	f := Fire("test.env")
	if f == nil || f.Err == nil || f.Err.Error() != "synthetic" {
		t.Fatalf("hit 2 = %+v, want the synthetic error", f)
	}
}

func TestEnableFromEnvRejectsBadSeed(t *testing.T) {
	t.Setenv(EnvVar, "point=test.seed,err=x")
	t.Setenv(EnvSeedVar, "not-a-number")
	if on, err := EnableFromEnv(); on || err == nil {
		t.Fatalf("bad seed: on=%v err=%v, want error", on, err)
	}
}

// TestSleepContextHonorsCancellation pins the property the drain path
// depends on: an injected stall aborts as soon as the lifecycle context
// is canceled instead of holding a fit-pool slot for the full delay.
func TestSleepContextHonorsCancellation(t *testing.T) {
	f := &Fault{Delay: time.Minute}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		f.SleepContext(ctx)
		close(done)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SleepContext did not return after cancellation")
	}
	// Nil fault and zero delay are no-ops regardless of ctx state.
	var nilFault *Fault
	nilFault.SleepContext(ctx)
	(&Fault{}).SleepContext(ctx)
}
