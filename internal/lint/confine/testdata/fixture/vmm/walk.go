package vmm

import "fixture/memsim"

// Walk is outside the speculation hot path: architectural page-table walks
// read physical memory directly by design, so the speculation gate ignores
// the vmm package.
func Walk(p *memsim.Phys, root uint64) uint64 {
	return p.Read64(root)
}
