package cudasim

// Additional device presets beyond the paper's GTX 480 testbed, for
// model experiments: an older-generation part with legacy shared-memory
// bank semantics (where the paper's four-character thread stagger has
// visible effect) and a notional multi-die configuration helper.

// TeslaC1060 models a GT200-class part: 30 SMs x 8 SPs, 16 KiB shared
// memory per SM with 16 banks serviced per half-warp and no same-word
// multicast — the environment the paper's bank-conflict avoidance
// (§III.B.2) was designed against.
func TeslaC1060() *Device {
	return &Device{
		Name:                "Tesla C1060 (simulated)",
		SMs:                 30,
		CoresPerSM:          8,
		ClockHz:             1.296e9,
		SharedMemPerSM:      16 << 10,
		MaxSharedPerBlock:   16 << 10,
		MaxThreadsPerBlock:  512,
		MaxWarpsPerSM:       32,
		MaxBlocksPerSM:      8,
		GlobalBandwidth:     102e9,
		GlobalLatencyCycles: 500,
		SharedBanks:         16,
		BankWidthBytes:      4,
		PCIeBandwidth:       5e9,
		PCIeLatency:         12e3, // 12us in ns
		LegacyBankSemantics: true,
	}
}

// Clone returns a copy of the device that can be mutated independently
// (a supervised device pool gives each simulated GPU its own descriptor).
func (d *Device) Clone() *Device {
	c := *d
	return &c
}
