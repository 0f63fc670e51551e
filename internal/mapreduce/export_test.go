package mapreduce

// MakerCodecErrors reports, per registered job maker, its payload types
// without a wire codec — for the external test that links the production
// makers, which this package cannot import.
func MakerCodecErrors() map[string]error {
	registry.Lock()
	defer registry.Unlock()
	errs := make(map[string]error, len(registry.makers))
	for name, mk := range registry.makers {
		errs[name] = mk.codecs()
	}
	return errs
}
