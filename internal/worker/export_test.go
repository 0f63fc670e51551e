package worker

import "errors"

// ReceiverlessOptions returns serve options for a worker whose shuffle
// receiver fails to open: it registers, announces no endpoint and serves
// routed-only — the one degrade ServeTCP has, reachable only from tests.
func ReceiverlessOptions() ServeOptions {
	return ServeOptions{openReceiver: func() (*shuffleReceiver, error) {
		return nil, errors.New("worker: shuffle receiver open failed (injected by a test)")
	}}
}
