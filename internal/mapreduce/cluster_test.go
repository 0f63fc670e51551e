package mapreduce

import (
	"strings"
	"testing"
	"time"
)

func TestClusterValidate(t *testing.T) {
	valid := func() *Cluster { return NewCluster(3) }
	cases := []struct {
		name    string
		mutate  func(*Cluster)
		wantErr string // substring; empty means valid
	}{
		{name: "default is valid", mutate: func(*Cluster) {}},
		{name: "zero cost model via constructor", mutate: func(c *Cluster) { c.Cost = ZeroCostModel() }},
		{name: "no slaves", mutate: func(c *Cluster) { c.Slaves = 0 }, wantErr: "at least 1 slave"},
		{name: "negative slaves", mutate: func(c *Cluster) { c.Slaves = -2 }, wantErr: "at least 1 slave"},
		{name: "forgotten cost model", mutate: func(c *Cluster) { c.Cost = CostModel{} }, wantErr: "no cost model"},
		{name: "negative map rate", mutate: func(c *Cluster) { c.Cost.MapPerRecord = -time.Millisecond }, wantErr: "MapPerRecord is negative"},
		{name: "negative shuffle rate", mutate: func(c *Cluster) { c.Cost.ShufflePerByte = -1 }, wantErr: "ShufflePerByte is negative"},
		{name: "negative overhead", mutate: func(c *Cluster) { c.Cost.TaskOverhead = -time.Second }, wantErr: "TaskOverhead is negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := valid()
			tc.mutate(c)
			err := c.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunRejectsInvalidCluster checks Run surfaces Validate errors before
// doing any work.
func TestRunRejectsInvalidCluster(t *testing.T) {
	c := NewCluster(2)
	c.Slaves = 0
	_, err := Run(c, remoteModCountJob(), []records[int]{{1, 2, 3}})
	if err == nil || !strings.Contains(err.Error(), "at least 1 slave") {
		t.Fatalf("Run = %v, want Slaves validation error", err)
	}
}
