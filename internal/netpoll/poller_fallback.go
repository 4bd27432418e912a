//go:build !linux

package netpoll

import "time"

// Available reports whether epoll pollers can be created on this host.
// Always false off Linux: callers keep the goroutine-per-connection path.
func Available() bool { return false }

// Poller is unavailable on this platform; New always returns ErrUnsupported.
// The type and its methods exist so shared code compiles everywhere.
type Poller struct{}

// New returns ErrUnsupported on non-Linux platforms.
func New(Config) (*Poller, error) { return nil, ErrUnsupported }

func (p *Poller) Register(fd int, cb func(Event)) error { return ErrUnsupported }
func (p *Poller) CloseFD(fd int)                        {}
func (p *Poller) Unregister(fd int)                     {}
func (p *Poller) Post(fn func()) bool                   { return false }
func (p *Poller) AfterFunc(d time.Duration, fn func()) *Timer {
	return nil
}
func (p *Poller) StopTimer(t *Timer) bool              { return false }
func (p *Poller) ResetTimer(t *Timer, d time.Duration) {}
func (p *Poller) Stats() Stats                         { return Stats{} }
func (p *Poller) Close() error                         { return nil }
