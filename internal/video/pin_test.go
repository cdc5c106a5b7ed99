package video

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/frame"
)

// pinnedClips are SHA-256 digests of clipDigest's frames, recorded from
// the per-sample renderer before the per-frame one replaced it. Every
// claim, golden and benchmark downstream reads these clips, so a change
// to the renderer is only right if it leaves every digest unchanged.
var pinnedClips = map[string]string{
	"Carphone/SQCIF/1":         "2fc58204ecb76ede0c114a4e16d40ed1a8ff6cf37aff0f2540ab6fbc07490424",
	"Carphone/SQCIF/7":         "3c63b776817b7feb1634a6919d52e153d96824053caaa1c89aafafa1f649c5a5",
	"Carphone/SQCIF/2005":      "7b285bdb668af373aea0786bbcee4409d8012153b219f23ded706f03dfee94bc",
	"Carphone/SQCIF/31337":     "65230ff3a7045def809e64db3d8f2c8502244740a60004b37adb14cbabf0965c",
	"Carphone/QCIF/1":          "6445119dce1c80b78e92e5fb9b51ded614bc3284de9cb4e9114b5f8afdf59dfc",
	"Carphone/QCIF/7":          "1fd92f13bc43b200bcf4c2552f654c72dc3e7fe56bdca19339e8bf6902d83d2b",
	"Carphone/QCIF/2005":       "7bff935a6843d5d97798e59d4e567995d278c97588ec0e978064790d40976399",
	"Carphone/QCIF/31337":      "e84e428688cd4793df270497be7baeff45759acb005db621104db74687c65c3e",
	"Carphone/CIF/1":           "ef79f745daec2ec0b490940470409b7e97f0c9e28f58688b85a44cdc1ba9db57",
	"Carphone/CIF/7":           "be634903cf24f7299ed99b845c8201e2889c2a262fcfa6db79d9571be5b19a8f",
	"Carphone/CIF/2005":        "1cfab5d3590257b37c74061591d942af9dc5ee2663c90f48859d914cc8c363b2",
	"Carphone/CIF/31337":       "38747303a286216210b495c8f5ab57b852a53dab0355c9aa18985396faec5314",
	"Foreman/SQCIF/1":          "43979a5172c0d4cb25ca433ed55c77df32b0977b2051ef389b7e7042725a0f8d",
	"Foreman/SQCIF/7":          "9a69c4c6df09f736b3b418916f7601189e51c32a4e58da0b924753c5a877673f",
	"Foreman/SQCIF/2005":       "e35a6987b467d448b5faacfae28fa407e797851e2b14e9d6da4d5ec3a985aefe",
	"Foreman/SQCIF/31337":      "cf5547bab4482423bb04a76dcce7de864dd6b5f76d2c804456ff8649eeb0ddd6",
	"Foreman/QCIF/1":           "af8f4b60fe9f60b5e7e7e83c737f517599917aa4e552bdb0770caedaaa1ba7af",
	"Foreman/QCIF/7":           "6f15d493f8076d0127dc02bf42b35da703b1494bffb0428868270d2393ca8ecb",
	"Foreman/QCIF/2005":        "9f2ecbe802d9a3025aa5954ed876744bd2fb13fc7bef4fadfa9f9a9d80b44f3b",
	"Foreman/QCIF/31337":       "0253b637d458ecac7e547f2adcf78565ef9dc0b533bae4429c71b93be454c4ad",
	"Foreman/CIF/1":            "a7c9e4410fb11c80775bdeedaa6d689cc059075f00dd66341df726ef52598630",
	"Foreman/CIF/7":            "12d51101fd530339c1527a3cc00215e8c857bc436e2dc7cefe97364785d4f95f",
	"Foreman/CIF/2005":         "33b1a94110ef79e5e4fe38bf28068386d9463f84e4c186acfa82f424f528d6a9",
	"Foreman/CIF/31337":        "f35a4b94dffb2150db000fc44e69f282ddc401768846e6757f555a6610fab0ca",
	"Miss America/SQCIF/1":     "4523d99556ce3f6cb6baa5f16bf0d0f9f1b9b9d5e2d989cceb37a1884aa21999",
	"Miss America/SQCIF/7":     "a3d151fa7dd9f1b93fbd814e1750bb58ea00bd0f1d58cb440b9b000cc1fb324a",
	"Miss America/SQCIF/2005":  "9730768ba04b7069175a68a2d25a4313e3fb74125914f5005bf17bd4ed87fdba",
	"Miss America/SQCIF/31337": "a10f19cdadd68a5a65564599433f4c2bc4d634416a3765138ecbf9a3dac02e47",
	"Miss America/QCIF/1":      "304593ee3a44238bb85b6961d09def450fa75c1b6429e0ea931fc4f138283577",
	"Miss America/QCIF/7":      "9a963354c6e0d90122360a8d7f05853a3f8482a0a3403b3a4bfa0e3317b54511",
	"Miss America/QCIF/2005":   "b7b14b4de51bc559209ce20f114f8813c44f77a1b1a698c190737b9aa29b4da3",
	"Miss America/QCIF/31337":  "d50353ae302981a1edcedb2b8c65dc4a5d00b3303bc3b67608fff592ec85be08",
	"Miss America/CIF/1":       "46c380d72098c0183410c04e9a09a6e1ac46cef3a53b429f0874e576be5779d5",
	"Miss America/CIF/7":       "3c8e7d5abf09df27c10be3512b640ccc9425b50bf591d6d7f3efabb64a5cc4eb",
	"Miss America/CIF/2005":    "909929c9ed4aae6fd4132dd003e02e22736da66d83bcc487dc58fa6efd43647d",
	"Miss America/CIF/31337":   "01089180b0b98957be988bca897ad01ccc2de955f88a8402394206a31d505691",
	"Table/SQCIF/1":            "cde48e695e689ca5d10d6103ff6e99ddcdc5fb696d58839a1e4b91aef20336bd",
	"Table/SQCIF/7":            "b1f78f2a5a60b8ebb214133eb2ed2e86cf4495d1ee2c090ba81c8bd3501d5b41",
	"Table/SQCIF/2005":         "aaeeebca3890ee5c09020a14b9371d7b10f8f9dd371868827334dff723994e4a",
	"Table/SQCIF/31337":        "b9f6da12c6d022501f737a39e82bdd3132627fbb70a5eba7def317b45a4a26eb",
	"Table/QCIF/1":             "befafa7a288a9cd2f90b09bae42e2b5a2820d482fd58e83b21f67675083775bd",
	"Table/QCIF/7":             "a5e67d9e072c4db13d04d6d198059fe867727690f20338e44746098cd21b205d",
	"Table/QCIF/2005":          "9f966f915e27e547acce06ec757c2cf1fbf914267472fe8718b0643316d8d89c",
	"Table/QCIF/31337":         "b2758c1f039f0c1b0024973c5ccb60d9460283804f86eabfa6cc40c0f63d4d96",
	"Table/CIF/1":              "9a61bff50893b4ecdfc4b87134dd673196cb31c826327cba6b37d269fa47f31e",
	"Table/CIF/7":              "1f00ace4ed5c71e87448684c82d37652b44055fac3740c90fa69eba5f5a82df3",
	"Table/CIF/2005":           "4aaa43fd9f1aefcaa9ebcee94490568c4a3a7ac727ca0d49a72f6be7b3078ac7",
	"Table/CIF/31337":          "2d277abf3293edba560519c55267593a8ac8750e9bcc733f53f42bd13347575a",
}

// clipDigest hashes the Y, Cb and Cr planes of the frames every caller
// route produces: Generate's first two frames, ReferenceFrame, frame 47
// (inside Foreman's pan, which starts after frame 40, and deep into
// Table's zoom) and frame 29 of the scene with sensor noise.
func clipDigest(p Profile, size frame.Size, seed uint64) string {
	h := sha256.New()
	for _, f := range Generate(p, size, 2, seed) {
		hashFrame(h, f)
	}
	hashPlane(h, ReferenceFrame(p, size, seed))
	hashFrame(h, p.Scene(seed).Render(size, 47))
	hashFrame(h, WithSensorNoise(p.Scene(seed), 2.0, seed).Render(size, 29))
	return hex.EncodeToString(h.Sum(nil))
}

func hashFrame(h hash.Hash, f *frame.Frame) {
	hashPlane(h, f.Y)
	hashPlane(h, f.Cb)
	hashPlane(h, f.Cr)
}

func hashPlane(h hash.Hash, p *frame.Plane) {
	for y := 0; y < p.H; y++ {
		h.Write(p.Row(y))
	}
}

func TestGeneratePinned(t *testing.T) {
	for _, p := range Profiles {
		for _, size := range []frame.Size{frame.SQCIF, frame.QCIF, frame.CIF} {
			for _, seed := range []uint64{1, 7, 2005, 31337} {
				key := fmt.Sprintf("%v/%v/%d", p, size, seed)
				want, ok := pinnedClips[key]
				if !ok {
					t.Fatalf("no pinned digest for %s", key)
				}
				if got := clipDigest(p, size, seed); got != want {
					t.Errorf("%s: digest %s, pinned %s", key, got, want)
				}
			}
		}
	}
}
