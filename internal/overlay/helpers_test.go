package overlay

// storedPopularity recomputes p(D(k)) — the summed popularity of the
// peer's stored documents — from the DT, independently of the byCat index
// protocol.UnitMass reads, so the fuzz invariants cross-check the two.
func (p *Peer) storedPopularity() float64 {
	var sum float64
	for di := range p.dt {
		sum += p.sys.inst.Catalog.Doc(di).Popularity
	}
	return sum
}
