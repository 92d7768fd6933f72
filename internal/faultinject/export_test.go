package faultinject

// Disarm returns a site to inert.
func (in *Injector) Disarm(site string) {
	in.mu.Lock()
	delete(in.rates, site)
	delete(in.every, site)
	in.mu.Unlock()
}

// Attempts returns how many decisions the (site, label) stream has made.
func (in *Injector) Attempts(site, label string) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	if st := in.stats[stream{site: site, label: label}]; st != nil {
		return st.attempts
	}
	return 0
}
