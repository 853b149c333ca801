package main

// simDigests are the SHA-256 digests of each figure's CSV at every
// figure seed sim-apps runs (simSeed), recorded with
// `perfbench record-digests`. The figures are deterministic per seed, so
// a mismatch means the program's simulated output changed.
var simDigests = map[int64]map[string]string{
	1: {
		"fig4":      "60f1fae57efab7c905c4e20d83edf429f62346cad66415a02b3f47ecf7d6f3ca",
		"fig6":      "d5f853332fac4982dc94072dfd90a193da6a552b66e627e2723ec6e7143acc44",
		"fig9":      "ae07e887ba42b4d00fea3e1199ef8a4433d504bce7ad0c26e6bab3a534ef00c9",
		"fig-chase": "155d46f40ccc83be433e6a82d9d54ba78cd5103b32551d5a4a22a333a6576f8d",
	},
	2: {
		"fig4":      "cb2316b867de2c63da12ffdb3358669330c8abc79be75f24c880f4fbe01add58",
		"fig6":      "143e29a76c1e70359bd2e8c3ede21645e78cf9162b323aaa94bb7de19728c428",
		"fig9":      "e5fdc130bfdc2ff82852cfbb704d872f743c778dc234d3fc43b35a6ab7e91c3b",
		"fig-chase": "155d46f40ccc83be433e6a82d9d54ba78cd5103b32551d5a4a22a333a6576f8d",
	},
	3: {
		"fig4":      "44c639bfa50ae05b1337f10f1872d5c06b6a752b20ba63db51ba50d17e29fee3",
		"fig6":      "c953688131830b628a909b80009bd273dadabeff91ca634a62f28feaf8a636d2",
		"fig9":      "11030151d60086d49722c7a7957ff38293eef3775067351aff109edf506f1125",
		"fig-chase": "155d46f40ccc83be433e6a82d9d54ba78cd5103b32551d5a4a22a333a6576f8d",
	},
	4: {
		"fig4":      "5f276cee10366890397c42a2549962588335a284e015d55a9adcc7d2bf72fb04",
		"fig6":      "7d6fdbdaa8801cdd844122ba7ebfe0b868c6dd3473d3c73fa8a0bce0a88bd453",
		"fig9":      "68150a7d3ec8baabba11edcb181799fdc26fce884b8234c6dbb28b71b4fb3135",
		"fig-chase": "155d46f40ccc83be433e6a82d9d54ba78cd5103b32551d5a4a22a333a6576f8d",
	},
	5: {
		"fig4":      "df5665db9d291d880febf35c876287c3e8e8ddf290805dc913822dfc24d40f9b",
		"fig6":      "c44f7548856a26b7644ce68ac09e6cf015af44b6e2812454d258866c38466b5b",
		"fig9":      "f53b06a66455e0b79fe1b4d12c82d5b712396ebf15ad8ac7d9fc4a0e378c304c",
		"fig-chase": "155d46f40ccc83be433e6a82d9d54ba78cd5103b32551d5a4a22a333a6576f8d",
	},
	6: {
		"fig4":      "a3cbac983db9f61e68a290a6660ae5efce2f974289c01d9fc08e81d0a42276c2",
		"fig6":      "bbc3192c8dc6a6a6c79c4b82c139f097bcbcd561fccf5ac5f94815f6607d8e75",
		"fig9":      "c4e5150b8f6d2317017aa169b1840a7b485ecebe30d03ca00070547303296875",
		"fig-chase": "155d46f40ccc83be433e6a82d9d54ba78cd5103b32551d5a4a22a333a6576f8d",
	},
	7: {
		"fig4":      "b64d20e483f25375cfb43c9fec20fde6120eb67f5e5730d3b448ca42782502de",
		"fig6":      "f0b08534aa9f87980ced8579010aa475dac3e5309302d931c10ce313e095ee22",
		"fig9":      "038540967d321cda519228aaac8dc01bf0c5150df2c1c4ef93f110e548228939",
		"fig-chase": "155d46f40ccc83be433e6a82d9d54ba78cd5103b32551d5a4a22a333a6576f8d",
	},
	8: {
		"fig4":      "608cc31f18ab68c3abb9d21268d7c34570a464362505faddb4d5d65d8621a6aa",
		"fig6":      "c73d87524ec3ed7034b69cbfbd480624f0873de8acc1c9c95f120befdfa75a4d",
		"fig9":      "bc683582932eb981cb800f4c189bd7fbb424431f12a9ce79e529d46c5b89cf93",
		"fig-chase": "155d46f40ccc83be433e6a82d9d54ba78cd5103b32551d5a4a22a333a6576f8d",
	},
}
