// Package pairx is releasepair's testdata: keyed pairs (Mu.Lock/Unlock,
// Pool.Pin/Unpin keyed by the chunk ID) and result pairs (T.Start/End
// spans, NewRes/Seal, Store.Lease/Release), plus callers that leak them
// on early returns, panics, and discarded results.
package pairx

type Mu struct{}

func (m *Mu) Lock()   {}
func (m *Mu) Unlock() {}

type Pool struct{}

func (p *Pool) Pin(id int)   {}
func (p *Pool) Unpin(id int) {}

type Span struct{ ok bool }

func (s Span) End()  {}
func (s Span) Note() {}

type T struct{}

func (t *T) Start() Span { return Span{ok: true} }

type Res struct{ sealed bool }

func NewRes() *Res { return &Res{} }

func (r *Res) Seal() { r.sealed = true }

// Store and Lease mirror the chunk store's leased reads: Lease takes an
// empty lease, Read reads a chunk through it, Release gives it back.
type Store struct{ cells []int }

type Lease struct {
	s    *Store
	held int
}

func (s *Store) Lease() Lease { return Lease{s: s} }

func (l *Lease) Read(id int) (int, error) {
	l.held = id
	return l.s.cells[id], nil
}

func (l *Lease) Release() { l.held = -1 }
