package serve

import "reflect"

// popIndexed reports whether the daemon's population has built the id index
// its mutations look members up in. The index is unexported state of
// live.Population, so this reads the field by name: renaming it breaks the
// tests that call this loudly (FieldByName finds nothing and IsNil panics).
func (s *Server) popIndexed() bool {
	return !reflect.ValueOf(s.pop).Elem().FieldByName("loc").IsNil()
}
