package packet

import "encoding/binary"

// internetChecksum computes the RFC 1071 one's-complement checksum over
// data, starting from an initial partial sum.
func internetChecksum(data []byte, initial uint32) uint16 {
	return finishSum(addToSum(initial, data))
}

// addToSum folds data into a running 32-bit partial sum. It adds eight
// bytes per step, as two big-endian 32-bit words into a 64-bit
// accumulator, and folds the result back to 32 bits. The partial sum it
// returns is not the plain sum of 16-bit words, but it is congruent to it
// modulo 0xffff (2¹⁶ ≡ 1) and zero only when that sum is, so finishSum
// gives the same checksum.
func addToSum(sum uint32, data []byte) uint32 {
	acc := uint64(sum)
	for len(data) >= 8 {
		w := binary.BigEndian.Uint64(data)
		acc += w>>32 + w&0xffffffff
		data = data[8:]
	}
	if len(data) >= 4 {
		acc += uint64(binary.BigEndian.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		acc += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		acc += uint64(data[0]) << 8 // odd trailing byte, padded with zero
	}
	acc = acc&0xffffffff + acc>>32
	return uint32(acc&0xffffffff + acc>>32)
}

// finishSum folds the carries and complements.
func finishSum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// pseudoHeaderSum starts a TCP/UDP checksum with the IPv4 pseudo header.
func pseudoHeaderSum(srcIP, dstIP uint32, proto uint8, l4Len int) uint32 {
	var sum uint32
	sum += srcIP >> 16
	sum += srcIP & 0xffff
	sum += dstIP >> 16
	sum += dstIP & 0xffff
	sum += uint32(proto)
	sum += uint32(l4Len)
	return sum
}
