// Package chaos injects transport faults between a gateway and its
// backends for the gateway's tests. A Proxy is a TCP relay listening on a
// loopback port and forwarding to one real backend; the Plan in force —
// settable at runtime, mid-connection — can stall the traffic (a
// partition that keeps sockets open), and KillActive cuts every
// established connection at once, the mid-stream backend-crash case.
//
// The proxy operates below HTTP on purpose: the failures it produces are
// the ones a real network or a crashed peer produces (RST, silence,
// half-delivered bytes), so the gateway's retry, breaker, and idle
// timeout machinery is exercised exactly as deployed — nothing is mocked
// at the protocol level.
package chaos

import (
	"net"
	"sync"
	"time"
)

// Plan is the fault set in force. The zero Plan forwards faithfully.
type Plan struct {
	// Stall freezes forwarding (established connections carry no bytes)
	// while set — a partition that keeps sockets open. Clearing the plan
	// un-freezes connections that are still alive.
	Stall bool
}

// Proxy is one fault-injecting TCP relay in front of one backend.
type Proxy struct {
	ln     net.Listener
	target string

	mu    sync.Mutex
	plan  Plan
	conns map[net.Conn]struct{} // accepted sides, for KillActive
	done  bool

	wg sync.WaitGroup
}

// New starts a proxy on a random loopback port relaying to target
// (host:port of a real backend).
func New(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address (host:port).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL is the proxy's base URL, the form gateway Config.Backends wants.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// SetPlan swaps the fault plan; it applies to in-flight connections at
// their next chunk boundary and to every connection accepted after.
func (p *Proxy) SetPlan(plan Plan) {
	p.mu.Lock()
	p.plan = plan
	p.mu.Unlock()
}

// Plan returns the plan in force.
func (p *Proxy) Plan() Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.plan
}

// KillActive resets every established connection — the backend crashed
// mid-stream. New connections are still accepted (under the current
// plan), so the "backend" comes back the moment the real one answers.
func (p *Proxy) KillActive() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.conns)
	for c := range p.conns {
		abort(c)
	}
	return n
}

// Close stops the listener and resets everything in flight.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.done {
		p.mu.Unlock()
		return
	}
	p.done = true
	for c := range p.conns {
		abort(c)
	}
	p.mu.Unlock()
	p.ln.Close()
	p.wg.Wait()
}

// abort closes a TCP connection with linger 0 so the peer sees RST, the
// signature of a crashed process rather than a polite shutdown.
func abort(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		backend, err := net.DialTimeout("tcp", p.target, 2*time.Second)
		if err != nil {
			abort(client)
			continue
		}
		p.mu.Lock()
		if p.done {
			p.mu.Unlock()
			abort(client)
			abort(backend)
			return
		}
		p.conns[client] = struct{}{}
		p.conns[backend] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go p.relay(client, backend)
	}
}

// relay pumps both directions until either side dies or KillActive/Close
// resets the connection.
func (p *Proxy) relay(client, backend net.Conn) {
	defer p.wg.Done()
	defer func() {
		abort(client)
		abort(backend)
		p.mu.Lock()
		delete(p.conns, client)
		delete(p.conns, backend)
		p.mu.Unlock()
	}()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); p.pump(backend, client) }()
	go func() { defer wg.Done(); p.pump(client, backend) }()
	wg.Wait()
}

// pump copies src→dst chunk by chunk, holding each chunk while the plan
// stalls.
func (p *Proxy) pump(dst, src net.Conn) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			// Stalled: hold the bytes, keep the sockets. Poll so a cleared
			// plan (partition healed) resumes the stream.
			for p.Plan().Stall {
				time.Sleep(10 * time.Millisecond)
				if p.closedConn(src) {
					return
				}
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// closedConn reports whether KillActive/Close already removed c.
func (p *Proxy) closedConn(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.conns[c]
	return !ok || p.done
}
