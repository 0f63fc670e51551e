package live

// Contains reports whether a member with the ID is in some block. It scans
// the blocks rather than reading the id index, so it answers the same before
// the first mutation builds the index as after.
func (p *Population) Contains(id int64) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, b := range p.blocks {
		for i := range b.Rows {
			if b.Rows[i].ID == id {
				return true
			}
		}
	}
	return false
}

// Indexed reports whether the population has built its id index.
func (p *Population) Indexed() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.loc != nil
}
