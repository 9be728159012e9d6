//go:build linux

package place

const sysGetcpu = 168
