package watch

import "time"

// Option tunes a watch stream; the live and simulated clients share them.
type Option func(*Options)

// Options is a watch stream's resolved tuning.
type Options struct {
	Buffer       int
	Resync       time.Duration // dirty-key read retry / gap-resync cadence
	AntiEntropy  time.Duration // full re-read sweep period; 0 disables
	PollInterval time.Duration // poll fallback cadence; 0 disables fallback
}

// BuildOptions applies opts over the defaults: a 64-event buffer, 200 ms
// resync and a 10 s anti-entropy sweep, no poll fallback.
func BuildOptions(opts []Option) Options {
	o := Options{
		Buffer:      64,
		Resync:      200 * time.Millisecond,
		AntiEntropy: 10 * time.Second,
	}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithBuffer sizes the event channel. Slow consumers coalesce: when the
// buffer is full the event is dropped, the key is marked dirty, and a
// later resync delivers the newest state instead — subscribers may miss
// intermediate values, never the final one.
func WithBuffer(n int) Option { return func(o *Options) { o.Buffer = n } }

// WithResyncInterval sets the cadence at which keys marked dirty (stream
// gaps, failed reads, overflow drops) are re-read. When nothing is dirty
// a tick issues no reads at all — the steady state of a push watch.
func WithResyncInterval(d time.Duration) Option {
	return func(o *Options) { o.Resync = d }
}

// WithAntiEntropy sets the period of the full re-read sweep that catches
// a lost *final* event (which no later stream sequence can expose).
// 0 disables the sweep.
func WithAntiEntropy(d time.Duration) Option {
	return func(o *Options) { o.AntiEntropy = d }
}

// WithPollFallback lets a watch degrade to version-polling every d when
// the cluster has no reachable relay tier, instead of failing. Without
// this option the watch returns an error in that case.
func WithPollFallback(d time.Duration) Option {
	return func(o *Options) { o.PollInterval = d }
}
