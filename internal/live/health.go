package live

import (
	"sync"
	"time"

	"sdme/internal/topo"
)

// HealthMonitor watches the runtime's devices the way the paper's
// controller would watch its middleboxes: each device answers a liveness
// probe on a channel its own dataplane loop serves between reads, so a
// wedged or stopped device misses probes and is reported down. The
// controller side pairs this with MarkFailed + Recompute to complete the
// dependability loop.
type HealthMonitor struct {
	rt       *Runtime
	interval time.Duration
	misses   int

	mu     sync.Mutex
	down   map[topo.NodeID]bool
	missed map[topo.NodeID]int
	onDown func(topo.NodeID)
	onUp   func(topo.NodeID)

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewHealthMonitor creates a monitor probing every device at the given
// interval; a device is declared down after `misses` consecutive missed
// probes and up again after one answered probe. Callbacks (optional) fire
// from the monitor goroutine.
func (r *Runtime) NewHealthMonitor(interval time.Duration, misses int, onDown, onUp func(topo.NodeID)) *HealthMonitor {
	if misses < 1 {
		misses = 1
	}
	return &HealthMonitor{
		rt:       r,
		interval: interval,
		misses:   misses,
		down:     make(map[topo.NodeID]bool),
		missed:   make(map[topo.NodeID]int),
		onDown:   onDown,
		onUp:     onUp,
		stop:     make(chan struct{}),
	}
}

// Start launches the probe loop.
func (m *HealthMonitor) Start() {
	m.wg.Add(1)
	go m.loop()
}

// Stop halts the probe loop and waits for it.
func (m *HealthMonitor) Stop() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	m.wg.Wait()
}

// Down returns the currently down devices in ID order.
func (m *HealthMonitor) Down() []topo.NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]topo.NodeID, 0, len(m.down))
	for id, d := range m.down {
		if d {
			out = append(out, id)
		}
	}
	return topo.SortedIDs(out)
}

// IsDown reports one device's state.
func (m *HealthMonitor) IsDown(id topo.NodeID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.down[id]
}

func (m *HealthMonitor) loop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
			m.probeAll()
		}
	}
}

// probeAll sweeps every device concurrently: one wedged device costs the
// sweep a single probe timeout instead of stalling every later device's
// down-detection behind it (sequential probing delayed detection by up
// to 2×interval per wedged device ahead of the victim). State updates
// and callbacks then run sequentially in Devices() order, so callback
// ordering stays deterministic per sweep.
func (m *HealthMonitor) probeAll() {
	devs := m.rt.Devices()
	alive := make([]bool, len(devs))
	var wg sync.WaitGroup
	for i, d := range devs {
		wg.Add(1)
		go func(i int, d *Device) {
			defer wg.Done()
			alive[i] = d.probe(m.interval)
		}(i, d)
	}
	wg.Wait()
	for i, d := range devs {
		id := d.Node.ID
		m.mu.Lock()
		if alive[i] {
			m.missed[id] = 0
			if m.down[id] {
				m.down[id] = false
				if m.onUp != nil {
					m.mu.Unlock()
					m.onUp(id)
					m.mu.Lock()
				}
			}
		} else {
			m.missed[id]++
			if m.missed[id] >= m.misses && !m.down[id] {
				m.down[id] = true
				if m.onDown != nil {
					m.mu.Unlock()
					m.onDown(id)
					m.mu.Lock()
				}
			}
		}
		m.mu.Unlock()
	}
}

// probe asks the device loop to answer within the timeout; a live loop
// is woken by the probe (submit) and answers without quiescing its pool.
func (d *Device) probe(timeout time.Duration) bool {
	resp := make(chan struct{}, 1)
	if !submit(d, d.health, resp, time.After(timeout)) {
		return false
	}
	select {
	case <-resp:
		return true
	case <-time.After(timeout):
		return false
	case <-d.done:
		return false
	}
}

// Stop halts one device's loop without closing the whole runtime — the
// failure-injection hook for tests and demos.
func (d *Device) Stop() { d.stop() }

// Wedge blocks the device's loop goroutine until the returned release
// function is called (or the device stops) — the fault-injection hook
// for a device that is alive at the socket but dead at the dataplane:
// health probes time out, Do calls stall, frames pile up unread. Unlike
// Stop, a wedged device recovers fully on release, queued commands and
// all. The release function is idempotent.
func (d *Device) Wedge() (release func()) {
	released := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(released) }) }
	blocked := func() {
		select {
		case <-released:
		case <-d.done:
		}
	}
	submit(d, d.commands, blocked, nil)
	return release
}
