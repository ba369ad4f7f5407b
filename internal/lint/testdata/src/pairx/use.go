package pairx

func lockBalanced(m *Mu, c bool) {
	m.Lock()
	if c {
		m.Unlock()
		return
	}
	m.Unlock()
}

func lockLeak(m *Mu, c bool) {
	m.Lock()
	if c {
		return // want `not released on this return path`
	}
	m.Unlock()
}

func lockDefer(m *Mu, c bool) {
	m.Lock()
	defer m.Unlock()
	if c {
		return
	}
}

func lockDeferClosure(m *Mu, c bool) {
	m.Lock()
	defer func() { m.Unlock() }()
	if c {
		return
	}
}

func pinLeak(p *Pool, c bool) {
	p.Pin(3)
	if c {
		return // want `not released on this return path`
	}
	p.Unpin(3)
}

func pinBalanced(p *Pool, ids []int) {
	for _, id := range ids {
		p.Pin(id)
		p.Unpin(id)
	}
}

func pinKeyMismatch(p *Pool, a, b int) {
	p.Pin(a)
	p.Unpin(b)
} // want `not released on this return path`

func spanLeak(t *T, c bool) {
	sp := t.Start()
	sp.Note()
	if c {
		return // want `not released on this return path`
	}
	sp.End()
}

func spanBalanced(t *T, c bool) {
	sp := t.Start()
	defer sp.End()
	if c {
		return
	}
}

// Passing the span away transfers the release duty with it.
func spanEscapeArg(t *T, c bool) {
	sp := t.Start()
	record(sp)
	if c {
		return
	}
}

func record(Span) {}

// Returning the resource hands ownership to the caller.
func spanEscapeReturn(t *T) Span {
	return t.Start()
}

func spanDiscard(t *T) {
	t.Start() // want `discarded`
}

func resPanicLeak(c bool) {
	r := NewRes()
	if c {
		panic("boom") // want `not released on this panic path`
	}
	r.Seal()
}

func resOK(c bool) {
	r := NewRes()
	r.Seal()
	if c {
		panic("fine")
	}
}

func pairokJustified(m *Mu, c bool) {
	//lint:pairok handoff: the caller releases this lock
	m.Lock()
	if c {
		return
	}
	m.Unlock()
}

func pairokBare(m *Mu, c bool) {
	//lint:pairok
	m.Lock() // want `needs a reason`
	if c {
		return
	}
	m.Unlock()
}

// A read through the lease keeps the release duty: the early return on
// a read error leaks the lease.
func leaseLeak(s *Store, ids []int) (int, error) {
	l := s.Lease()
	sum := 0
	for _, id := range ids {
		v, err := l.Read(id)
		if err != nil {
			return 0, err // want `not released on this return path`
		}
		sum += v
	}
	l.Release()
	return sum, nil
}

func leaseDeferred(s *Store, ids []int) (int, error) {
	l := s.Lease()
	defer l.Release()
	sum := 0
	for _, id := range ids {
		v, err := l.Read(id)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}
