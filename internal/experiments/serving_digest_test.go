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
	"fanout/digest-pin":       "7ba968a1db5d23d65eeafc5a58540b2038fb36f91686a24907777067d62ba709",
	"fanout/quorum":           "f2635a249ec7b091ff30c5db921b92a30f24d08b53dd1b16345d702a4302dd71",
	"fanout/w16-0.7-none":     "65884764e091a49acf93957ed5d7bde4b460be0d31378cd6fe18923bca122fe4",
	"fanout/w16-0.7-p95":      "9a6258c820bd85fc4aa720698de2efba1e40ad76fe18f029246472c0318fc0a9",
	"fanout/w16-1.2-none":     "9527562756505ebc94efc57ec276175c0f2436f148833e4c1386d9a1f57d82b0",
	"fanout/w16-1.2-p95":      "badaf341618e1986d8a0939bafaf152447039e5a0ba1c04ea86decab7115d1bd",
	"fanout/w8-0.7-none":      "ef9bd941999396c1c411b98783651f970192722c0268ba226a01c65473a3a6e2",
	"fanout/w8-0.7-p95":       "5f897914317cae71726719e90c37baae1f7233699aea2ba62be0a8f763a9393e",
	"fanout/w8-1.2-none":      "8580a85683f59b13f12b2b273c419734aee9177ed0f8295e824f565f8ffd5c30",
	"fanout/w8-1.2-p95":       "9747870f3824cb2cdc86200c1edbff87cd36055465757a4be9cda2818f515ba7",
	"overload/diurnal":        "df0943327f6122f10a34bc9341dd34f2c032a3b14e60e8e9bbf5d8841a30ef73",
	"overload/mix-1-cap":      "8064ea89abddd504b07972a7ba628bdcaa5cae766c14fd12cfc809c6779837e7",
	"overload/mix-1-codel":    "7303f108165e5aa8f930b4900d080cde89b554747cf926a79844793ce911420a",
	"overload/mix-1-none":     "489781e400d4fc8b14b2eb445aa1023f6e402bfec348a3b5b6fa01a9d7cdb32f",
	"overload/mix-1-token":    "17857529285eeb86610a0a893243705258acc4a8c4407822b6959bea3d8052ad",
	"overload/mix-1.5-cap":    "93069ad1f5d25c9a4cd685cbb879049874b6d58ee22ab008af81c524da4bd797",
	"overload/mix-1.5-codel":  "647ee97f29dc27c91e5a7ded8b07a71856f82e956eb77d78d4c8046a0a6940cf",
	"overload/mix-1.5-none":   "e4408c0d35eca34aa17edddb355d21af1c8d8d434bbd92d7f7c4a47dc273f414",
	"overload/mix-1.5-token":  "45a6811f7cb4e870fd82deb3f28514bffe42f05482ccba5424eb17b4e139254c",
	"overload/mix-2-cap":      "4571224d31c08f64377cc833d227ef2a6ff4e2705bc54d03675f9f1afaed109c",
	"overload/mix-2-codel":    "0abb040260826b940596e8a15a4db67a6dca3f89de4aca0a2df0c3364f80e810",
	"overload/mix-2-none":     "341f1c2dc9309dfae298be7393f5aaba9804a6011b16c03dac09ef5e1dbe423b",
	"overload/mix-2-token":    "3c1d3fed24afe5b646eab409185a54884fa1f27ca0f8889069b508ab3ba9be4a",
	"server/apache-siege-100": "63b1bf87f5daac018c8e732bdc5237dd54a39c56106d297ae92303063375e3f5",
	"server/apache-siege-250": "0daff7e9bbf4aaa088f4df508a1997918255b6bc32bd8cbe624f997bfcf21fb9",
	"server/leveldb":          "95bd6037e1eedfc59f1b622844bade2f4f8c1b4aeee0ad919220c78c863ef7ef",
	"server/nginx-200":        "a31eb9f63ef96fb22def2766f43f5eb851270f3c1be8ad15049690dd14b902f5",
	"server/nodejs":           "1cc3e67b6d1c0a1e32a4b0d3f4d673eff6966d492a1db387ad689ca5c2975962",
	"server/perl":             "95b067194995842b08ad6563cec27c495abac0834e5b31ee46ca20a12249a808",
	"server/php":              "863a065c05f4ab60003b9497f6bbaaa8919064bb1b09353195b2e96529c93fd7",
	"server/redis":            "c0e8961f7354803424fd910386a86e374efc2d48b8bb6254f94109c37d68c8d5",
	"server/rocksdb-randread": "46c145ca5d534e4690cf3744928f5b38eff7e799efa47adeeeda3edd6dd81011",
	"trace/digest-pin":        "e4540f007f3337ed4d4d30b1e2b9514c6c2f0654f05ea1b60cf00fc8d6be279d",
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
