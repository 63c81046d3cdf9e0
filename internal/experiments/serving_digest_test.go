package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Names of the two workloads the digest test registers itself, one per
// Register* path.
const (
	digestTraceName  = "trace/digest-pin"
	digestFanoutName = "fanout/digest-pin"
)

// servingDigests pins the SHA-256 of EncodeResult for one small cell of
// every open-loop and closed-loop serving preset, plus one workload
// registered through each of RegisterTraceWorkload and
// RegisterFanoutWorkload. A refactor of how the presets build their
// pools must leave every byte of every result unchanged.
var servingDigests = map[string]string{
	"fanout/digest-pin":       "6efa39aac5ab82e6d440c4502bbe0cbca2ae97e7f9664dbb4e96fbf2c88b8141",
	"fanout/quorum":           "75461fb19ea5cab3cc844f1babce2335aef089190cfd5f35464843d91dbcc55d",
	"fanout/w16-0.7-none":     "a32e1aa566ba6f4794ede02aa87f6752ef074e0dd176ec33446e944628b1b5db",
	"fanout/w16-0.7-p95":      "900cb702206d5971ae3e288dceb00554e3b2e5cbf93406028c493d5353694231",
	"fanout/w16-1.2-none":     "453cbd3d4747e2a3b0479e231dfdcbbc154569ca98d0dd2844d06ff58827b6d2",
	"fanout/w16-1.2-p95":      "2aec8dae2b1fee3d18f5446a64798130f4efb3909f231be41c9ce2d5d7b7173a",
	"fanout/w8-0.7-none":      "3bacc1f7f792925910370c82c257bbee2c226742918ec5f1acd38cff23892dcc",
	"fanout/w8-0.7-p95":       "b520a1c2ba236033d68fcacbe21905f24909fa6d0cb1a904c53fc5b51a3be2ee",
	"fanout/w8-1.2-none":      "1979599cb678fcfa5a06a5b12bda746d5f01ded7bb1b714324d7179adafc0322",
	"fanout/w8-1.2-p95":       "fa0a4d93ef60aabf6ba9c51eb65b9bb315b8e7c87eb50dff21922753fd11a717",
	"overload/diurnal":        "8cefa605887d6d4e97fa9a77596b21561ab49d19fd1f202927a701b91fe1ef8f",
	"overload/mix-1-cap":      "c7d28086751924a7a5666b77fc5221320a0eb5bdb8aae6cf63455aaab56f3339",
	"overload/mix-1-codel":    "ea9ce73ae8c8dcdbbfca50e7ad28772f01f3424a6e1483efc6aaf268c0498dd2",
	"overload/mix-1-none":     "9f39300fc454ef0ed5fedf636299d706c25ec4f480add02487fb9bb7eb8b5a69",
	"overload/mix-1-token":    "eeb26e5e0a83a9226e098c263789bdc65698a66fb31dabf6dfd336c30f23fdc7",
	"overload/mix-1.5-cap":    "b5214f69080e4215ff5b17b3c336a0a9193c9b0d37ab50eae3b799d7ad365b87",
	"overload/mix-1.5-codel":  "1d6d6a026eda498dff1d12dc0bc3aa87ba12ba8b91476415e11debf9d88dd00c",
	"overload/mix-1.5-none":   "4f5acb0908241c2c928166b292da4294f75b590aa78467f7ff4d257e61cc8ebb",
	"overload/mix-1.5-token":  "f020180367fca4a24d5e3406358d62624bde235419c88e1862ff0f00f178fb79",
	"overload/mix-2-cap":      "2ff0fb629412f88ddadc98c435110a42e6febb0f87805d936f237114a73c9203",
	"overload/mix-2-codel":    "f0815f643d07b58cc3b4708a3016a0e9c1102f81e2787fa2535534c0e8634e96",
	"overload/mix-2-none":     "e55db06656ed0ae806640c0be90199c8d94845a93054b7c7e12ac491bef573b7",
	"overload/mix-2-token":    "0e3f9896e782f288804be0b70181ac171e2d8a5378b965278ccb6a29a39f8f52",
	"server/apache-siege-100": "1ccac5cd781305a8d8ece45bd9d1c9179e6897b1f2f7ee7966b70fb40ac90619",
	"server/apache-siege-250": "8a501043c9b3930a3e2088eaf2a34aa13f4df14778da07e884100675e2d3582b",
	"server/leveldb":          "1610c701d165663c0077d2f5f0398ca79230f43fd6e78b12e5684e40cf954f12",
	"server/nginx-200":        "a49c0218a572f3b3ec985bae57ed287a2655ff9630ddf9b4bdc49b3a4298e759",
	"server/nodejs":           "3921b51ce5d2d58871c6b9a00584cad5bb2971e85e739c1bf8a60f5b23d856d5",
	"server/perl":             "823bf07301d3f24a5c6394cf8e44e20595a7aec396d101d2978e528828ab2e63",
	"server/php":              "4a52a3bf903b6d166c903482381666384b5fd9fdf0a128ed26b5c0ee36e9817f",
	"server/redis":            "caaf392eef125717703a1ee61b89aa7a6504b08c7a860f65d0d5c13260789e70",
	"server/rocksdb-randread": "80e000929bbe010cdca7bea834ace79fca98358e015df3d833f93b96d9de4ecd",
	"trace/digest-pin":        "fad193e32de038c7baef8c0bcd1c46278af2a5c33321beb6faf4a678106b4570",
}

// registerDigestWorkloads registers the trace and fan-out cells once
// per test binary (the registry rejects duplicates, and -count reruns
// the test).
func registerDigestWorkloads(t *testing.T) {
	t.Helper()
	if _, err := workload.ByName(digestTraceName); err != nil {
		// Steady arrivals every 10us (above the reference pool's
		// capacity, so the token bucket sheds), labeled round-robin
		// across the reference classes, every fifth entry unlabeled so
		// the class mix draw runs too.
		entries := make([]workload.TraceEntry, 4000)
		classes := []string{"web", "kv", "script", "web", ""}
		for i := range entries {
			entries[i] = workload.TraceEntry{T: sim.Time(i) * 10_000, Class: classes[i%len(classes)]}
		}
		if err := workload.RegisterTraceWorkload(digestTraceName, entries, "token"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := workload.ByName(digestFanoutName); err != nil {
		err := workload.RegisterFanoutWorkload(digestFanoutName,
			"fanout:width=6,stages=2,agg=quorum:4", "hedge:after=1ms,max=2", 0.8)
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestServingPresetDigests runs every registered server/*, overload/*
// and fanout/* workload, plus the two registered cells, at scale 0.05
// and compares each encoded result's digest with its pin.
func TestServingPresetDigests(t *testing.T) {
	registerDigestWorkloads(t)
	var names []string
	for _, n := range workload.Names() {
		for _, prefix := range []string{"server/", "overload/", "fanout/"} {
			if strings.HasPrefix(n, prefix) {
				names = append(names, n)
			}
		}
	}
	names = append(names, digestTraceName)
	got := map[string]string{}
	for _, n := range names {
		rs := RunSpec{Machine: "6130-2", Scheduler: "nest", Governor: "schedutil", Workload: n, Scale: 0.05, Seed: 1}
		res, err := Run(rs)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		b, err := EncodeResult(res)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		sum := sha256.Sum256(b)
		got[n] = hex.EncodeToString(sum[:])
	}
	for _, n := range names {
		if want, ok := servingDigests[n]; !ok {
			t.Errorf("%s: no pinned digest (got %s)", n, got[n])
		} else if got[n] != want {
			t.Errorf("%s: digest %s, want %s", n, got[n], want)
		}
	}
	if len(got) != len(servingDigests) {
		t.Errorf("ran %d cells, %d pinned", len(got), len(servingDigests))
	}
}
