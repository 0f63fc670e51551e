package worker

import (
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/stratified"
)

// These tests live in the worker package (not worker_test) because the evil
// peer below speaks the raw frame protocol: a hand-rolled "worker" that
// completes the hello handshake, leases a task, and then poisons the
// stream — an oversized length prefix in one variant, a mid-frame cut in
// the other. The contract under test is the satellite requirement: frame
// violations are worker death (drop + reassign to a survivor), never a
// deterministic task failure.

func frameErrSplits(t testing.TB) []dataset.Split {
	t.Helper()
	schema := dataset.MustSchema(
		dataset.Field{Name: "gender", Min: 0, Max: 1},
		dataset.Field{Name: "income", Min: 0, Max: 1000},
	)
	r := dataset.NewRelation(schema)
	for id := int64(0); id < 900; id++ {
		g := int64(1)
		if id >= 400 {
			g = 0
		}
		r.MustAdd(dataset.Tuple{ID: id, Attrs: []int64{g, id % 1001}})
	}
	splits, err := dataset.Partition(r, 6, dataset.Contiguous, nil)
	if err != nil {
		t.Fatal(err)
	}
	return splits
}

func frameErrRun(t testing.TB, exec mapreduce.Executor, splits []dataset.Split) (*query.Answer, mapreduce.Metrics) {
	t.Helper()
	schema := dataset.MustSchema(
		dataset.Field{Name: "gender", Min: 0, Max: 1},
		dataset.Field{Name: "income", Min: 0, Max: 1000},
	)
	q := query.NewSSD("workers",
		query.Stratum{Cond: predicate.MustParse("gender = 1"), Freq: 7},
		query.Stratum{Cond: predicate.MustParse("gender = 0"), Freq: 9},
	)
	c := &mapreduce.Cluster{
		Slaves: 3, SlotsPerSlave: 2,
		Cost:     mapreduce.DefaultCostModel(),
		Clock:    mapreduce.FrozenClock(time.Unix(0, 0)),
		Executor: exec,
	}
	ans, met, err := stratified.RunSQE(c, q, schema, splits, stratified.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return ans, met
}

// evilWorker registers over TCP with a well-formed hello, then answers
// its first leased task by calling poison on the raw connection.
func evilWorker(t *testing.T, addr string, poison func(net.Conn)) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fc := newFrameConn(conn, conn)
	if err := fc.write(&envelope{Kind: msgHello, ID: "evil", WireVersion: wireVersion}); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer conn.Close()
		if _, err := fc.read(); err != nil {
			return // dropped before a task arrived
		}
		poison(conn)
		// Linger so the close is the coordinator's decision, proving the
		// drop came from the frame error, not our hang-up.
		time.Sleep(5 * time.Second)
	}()
}

func testFramePoison(t *testing.T, poison func(net.Conn)) {
	splits := frameErrSplits(t)
	want, _ := frameErrRun(t, nil, splits)

	exec, err := NewTCPExecutor(TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	exec.SpawnLocal(1)
	if err := exec.AwaitWorkers(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	evilWorker(t, exec.Addr(), poison)
	if err := exec.AwaitWorkers(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// The map phase submits 6 tasks at once, so the evil worker's idle
	// lease loop is guaranteed to pull exactly one before it is dropped.
	got, met := frameErrRun(t, exec, splits)

	if !reflect.DeepEqual(want, got) {
		t.Errorf("answer after frame error differs from in-process:\n in: %v\nout: %v", want, got)
	}
	tasks := int64(met.MapTasks + met.ReduceTasks)
	attempts := met.MapAttempts + met.ReduceAttempts
	if attempts != tasks+1 {
		t.Errorf("attempts = %d over %d tasks, want exactly one reassignment (%d): frame error must be worker death, not task failure",
			attempts, tasks, tasks+1)
	}
}

// TestOversizedFrameIsWorkerDeath: a length prefix past maxFrameSize
// (*FrameSizeError) drops the worker and reassigns its task.
func TestOversizedFrameIsWorkerDeath(t *testing.T) {
	testFramePoison(t, func(conn net.Conn) {
		conn.Write([]byte{0x7F, 0xFF, 0xFF, 0xFF}) // 2 GiB claim
	})
}

// TestTruncatedFrameIsWorkerDeath: a stream cut mid-frame
// (*FrameTruncatedError) drops the worker and reassigns its task.
func TestTruncatedFrameIsWorkerDeath(t *testing.T) {
	testFramePoison(t, func(conn net.Conn) {
		conn.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xAB}) // claims 256 bytes, sends 1
		conn.Close()
	})
}
