package worker

import (
	"errors"
	"fmt"

	"repro/internal/mapreduce"
	"repro/internal/wire"
)

// wireVersion is the frame format this build speaks. A worker announces it
// in its hello and the coordinator attaches only an exact match
// (ErrWireVersion otherwise): strata spawns or is dialled by itself, so a
// different version is a misdeployment, not a peer to accommodate. Bump it
// with any change to the envelope, TaskSpec or TaskResult layout, or to a
// payload a spec carries (6: buckets ride only the task frames, so the
// hello lost its shuffle endpoint, a spec its shuffle plan and map-task
// count, a result its lost flag, direct-byte count and receive wall; 7: a
// sampling job's reduce output carries its stratum's N, and the counting
// job's pair and output records are gone; 8: a spec lost its maker name,
// since a worker builds its one job from the config alone).
const wireVersion = 8

// ErrWireVersion rejects a hello whose WireVersion is not wireVersion.
var ErrWireVersion = errors.New("worker: wire version mismatch")

// envelope flag bits in the binary frame encoding.
const (
	envHasSpec   = 1 << 0
	envHasResult = 1 << 1
)

// appendEnvelope appends the binary form of one frame body: kind byte, flag
// byte, identity strings, seq, error text, the version and clock sample of
// a hello, then the spec/result bodies when present.
func appendEnvelope(buf []byte, env *envelope) []byte {
	buf = append(buf, byte(env.Kind))
	var flags byte
	if env.Spec != nil {
		flags |= envHasSpec
	}
	if env.Result != nil {
		flags |= envHasResult
	}
	buf = append(buf, flags)
	buf = wire.AppendString(buf, env.ID)
	buf = wire.AppendUvarint(buf, env.Seq)
	buf = wire.AppendString(buf, env.Err)
	if env.Kind == msgHello {
		buf = append(buf, env.WireVersion)
		buf = wire.AppendVarint(buf, env.WallNanos)
	}
	if env.Spec != nil {
		buf = mapreduce.AppendTaskSpec(buf, env.Spec)
	}
	if env.Result != nil {
		buf = mapreduce.AppendTaskResult(buf, env.Result)
	}
	return buf
}

// decodeEnvelope decodes one binary frame body. Byte-slice fields of the
// embedded spec/result alias payload, so the caller must hand over
// ownership of the buffer (the read path allocates a fresh buffer per
// frame for exactly this reason).
func decodeEnvelope(payload []byte) (*envelope, error) {
	r := wire.NewReader(payload)
	env := &envelope{}
	env.Kind = msgKind(r.Byte())
	flags := r.Byte()
	env.ID = r.String()
	env.Seq = r.Uvarint()
	env.Err = r.String()
	if env.Kind == msgHello {
		env.WireVersion = r.Byte()
		env.WallNanos = r.Varint()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if flags&envHasSpec != 0 {
		spec, err := mapreduce.ReadTaskSpec(r)
		if err != nil {
			return nil, err
		}
		env.Spec = spec
	}
	if flags&envHasResult != 0 {
		res, err := mapreduce.ReadTaskResult(r)
		if err != nil {
			return nil, err
		}
		env.Result = res
	}
	if env.Kind < msgHello || env.Kind > msgDrain {
		return nil, fmt.Errorf("worker: frame with unknown kind %d: %w", env.Kind, wire.ErrCorrupt)
	}
	return env, r.Done()
}
