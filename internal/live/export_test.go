package live

// Contains reports whether a member with the ID is in some split. It scans
// the splits rather than reading the id index, so it answers the same before
// the first mutation builds the index as after.
func (p *Population) Contains(id int64) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, split := range p.splits {
		for i := range split {
			if split[i].ID == id {
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
