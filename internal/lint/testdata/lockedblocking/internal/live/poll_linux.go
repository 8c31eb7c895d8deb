package live

import "sync"

// poller is declared twice, once per platform (poll_other.go holds the
// fallback), so the loader must compile only the variant `go build`
// would: merging both is a redeclaration. This variant waits on its
// channel under the mutex: positive.
type poller struct {
	mu    sync.Mutex
	ready chan struct{}
}

func (p *poller) wait() {
	p.mu.Lock()
	defer p.mu.Unlock()
	<-p.ready // want:lockedblocking
}
