package dsa

// ForgetCellTables empties the cell-table registry: the next write of any
// domain renders its fixed cells cold.
func ForgetCellTables() {
	cellTables.Range(func(key, _ any) bool {
		cellTables.Delete(key)
		return true
	})
}

// FilledCells is how many points hold their cells, over every layout's
// cell table of d.
func FilledCells(d Domain) int {
	n := 0
	cellTables.Range(func(key, t any) bool {
		if k := key.(cellKey); k.name != d.Name() || k.space != d.Space() {
			return true
		}
		cells := t.(*CellTable).cells
		for i := range cells {
			if cells[i].Load() != nil {
				n++
			}
		}
		return true
	})
	return n
}
