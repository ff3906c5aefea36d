package packet

import "encoding/binary"

// internetChecksum computes the RFC 1071 one's-complement checksum over
// data, starting from an initial partial sum.
func internetChecksum(data []byte, initial uint32) uint16 {
	return finishSum(addToSum(initial, data))
}

// addToSum folds data into a running 32-bit partial sum.
func addToSum(sum uint32, data []byte) uint32 {
	n := len(data)
	i := 0
	for ; i+1 < n; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if i < n {
		sum += uint32(data[i]) << 8 // odd trailing byte, padded with zero
	}
	return sum
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
