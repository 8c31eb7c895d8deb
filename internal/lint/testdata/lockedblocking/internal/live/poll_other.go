//go:build !linux

package live

import "sync"

// poller is the fallback variant of poll_linux.go's type. It only
// samples the channel under the mutex: negative.
type poller struct {
	mu    sync.Mutex
	ready chan struct{}
}

func (p *poller) wait() {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.ready:
	default:
	}
}
