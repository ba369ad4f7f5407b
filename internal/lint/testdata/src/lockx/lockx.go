// Package lockx exercises lockguard's may-held dataflow.
package lockx

import (
	"io"
	"sync"

	"diskx"
	"obsx"
)

type pool struct {
	mu sync.Mutex
	ch chan int
	f  io.ReaderAt
	wg sync.WaitGroup
}

func (p *pool) recvUnderLock() int {
	p.mu.Lock()
	v := <-p.ch // want `channel receive while p.mu may be held`
	p.mu.Unlock()
	return v
}

func (p *pool) diskUnderDefer() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return diskx.Read(7) // want `diskx I/O \(diskx.Read\) while p.mu may be held`
}

// faultInCorrect is the pool's fault-in shape: drop the lock around
// the blocking work, re-acquire to publish. Nothing is flagged.
func (p *pool) faultInCorrect(buf []byte) int {
	p.mu.Lock()
	busy := p.ch != nil
	p.mu.Unlock()
	if busy {
		<-p.ch
	}
	n, _ := p.f.ReadAt(buf, 0)
	p.mu.Lock()
	p.ch = nil
	p.mu.Unlock()
	return n
}

// branchRelease releases on one path before blocking there.
func (p *pool) branchRelease(done bool) {
	p.mu.Lock()
	if done {
		p.mu.Unlock()
		<-p.ch
		return
	}
	p.mu.Unlock()
}

func (p *pool) readAtUnderLock(buf []byte) int {
	p.mu.Lock()
	n, _ := p.f.ReadAt(buf, 0) // want `ReadAt I/O while p.mu may be held`
	p.mu.Unlock()
	return n
}

func (p *pool) waitUnderLock() {
	p.mu.Lock()
	p.wg.Wait() // want `sync.WaitGroup.Wait while p.mu may be held`
	p.mu.Unlock()
}

// tier mirrors chunk.Tier's read surface: fault-in is file I/O and
// must run outside the pool lock.
type tier interface {
	ReadChunkAt(id int) ([]byte, error)
}

type tiered struct {
	mu sync.Mutex
	t  tier
}

func (p *tiered) faultUnderLock(id int) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.t.ReadChunkAt(id) // want `ReadChunkAt tier I/O while p.mu may be held`
}

// faultOutsideLock is the pool's real shape: drop the lock, fault in,
// re-acquire to publish. Nothing is flagged.
func (p *tiered) faultOutsideLock(id int) ([]byte, error) {
	p.mu.Lock()
	_ = p.t
	p.mu.Unlock()
	b, err := p.t.ReadChunkAt(id)
	p.mu.Lock()
	p.mu.Unlock()
	return b, err
}

// Observability sinks flush to their writers: emitting an event while
// holding the pool lock serializes readers behind the sink.
func (p *pool) emitUnderLock(l *obsx.Log) {
	p.mu.Lock()
	l.Emit("evict") // want `obsx I/O \(obsx.Emit\) while p.mu may be held`
	p.mu.Unlock()
}

func (p *pool) flushUnderLock() {
	p.mu.Lock()
	defer p.mu.Unlock()
	obsx.Flush() // want `obsx I/O \(obsx.Flush\) while p.mu may be held`
}

// emitOutsideLock snapshots under the lock, emits after release.
func (p *pool) emitOutsideLock(l *obsx.Log) {
	p.mu.Lock()
	busy := p.ch != nil
	p.mu.Unlock()
	if busy {
		l.Emit("busy")
	}
}

func (p *pool) annotated() int {
	p.mu.Lock()
	//lint:lockok handshake channel is buffered with capacity 1; the send side never blocks
	v := <-p.ch
	p.mu.Unlock()
	return v
}

func (p *pool) annotatedNoReason() int {
	p.mu.Lock()
	//lint:lockok
	v := <-p.ch // want `//lint:lockok needs a reason`
	p.mu.Unlock()
	return v
}
