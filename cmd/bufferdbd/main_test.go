package main

import (
	"flag"
	"strings"
	"testing"
)

// TestCheckFlags holds every refusal, and the flag sets the daemon is
// booted with, to checkFlags over the daemon's own flags: a refusal names
// a flag it was given, and nothing is loaded or started.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		refuse string // a flag the error must name; "" to accept
	}{
		{nil, ""},
		{[]string{"-scale", "0.005", "-result-cache", "8388608", "-reuse-cache"}, ""},
		{[]string{"-data-dir", "/tmp/x", "-pool-bytes", "2097152"}, ""},
		{[]string{"-max-concurrent", "8", "-max-queued", "32", "-admission-wait", "1s"}, ""},
		{[]string{"-shard-index", "1", "-shard-count", "3", "-replication", "2"}, ""},
		{[]string{"-shards", "a:1,b:2", "-replication", "2", "-breaker-threshold", "3"}, ""},

		{[]string{"-pool-bytes", "2097152"}, "-pool-bytes"},
		{[]string{"-data-dir", "", "-pool-bytes", "2097152"}, "-pool-bytes"},
		{[]string{"-max-queued", "32"}, "-max-queued"},
		{[]string{"-admission-wait", "1s"}, "-admission-wait"},
		{[]string{"-max-concurrent", "0", "-max-queued", "32"}, "-max-queued"},
		{[]string{"-shards", "x:1", "-data-dir", "/tmp/x"}, "-data-dir"},
		{[]string{"-shards", "x:1", "-pool-bytes", "1"}, "-pool-bytes"},
		{[]string{"-breaker-cooldown", "1s"}, "-breaker-cooldown"},
		{[]string{"-shard-index", "5", "-replication", "3"}, "-shard-index"},
		{[]string{"-replication", "3"}, "-replication"},
		{[]string{"-shard-count", "1"}, "-shard-count"},
		{[]string{"-shard-count", "-3"}, "-shard-count"},
		{[]string{"-memory-limit", "-1"}, "-memory-limit"},
		{[]string{"-max-concurrent", "-2", "-max-queued", "4"}, "-max-concurrent"},
		{[]string{"-result-cache", "-5"}, "-result-cache"},
	} {
		fs := flag.NewFlagSet("bufferdbd", flag.ContinueOnError)
		flag.VisitAll(func(f *flag.Flag) {
			if strings.HasPrefix(f.Name, "test.") { // the test binary's own
				return
			}
			if err := f.Value.Set(f.DefValue); err != nil {
				t.Fatal(err)
			}
			fs.Var(f.Value, f.Name, f.Usage)
		})
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		err := checkFlags(fs, *shards != "", *shardCnt > 1)
		switch {
		case tc.refuse == "" && err != nil:
			t.Errorf("%q refused: %v", tc.args, err)
		case tc.refuse != "" && err == nil:
			t.Errorf("%q accepted; want %s refused", tc.args, tc.refuse)
		case tc.refuse != "" && !strings.Contains(err.Error(), tc.refuse):
			t.Errorf("%q: %v; want it to name %s", tc.args, err, tc.refuse)
		}
	}
}
