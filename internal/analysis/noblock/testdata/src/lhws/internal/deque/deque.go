// Package deque is a fixture standing in for the real
// lhws/internal/deque, providing the method names noblock's blocking
// set refers to.
package deque

type Item interface{}

type ChaseLev struct{ items []Item }

func (d *ChaseLev) PushBottom(it Item) { d.items = append(d.items, it) }
func (d *ChaseLev) PopBottom() (Item, bool) {
	if len(d.items) == 0 {
		return nil, false
	}
	it := d.items[len(d.items)-1]
	d.items = d.items[:len(d.items)-1]
	return it, true
}

type Locked struct{ items []Item }

func (d *Locked) PushBottom(it Item) { d.items = append(d.items, it) }
func (d *Locked) PopBottom() (Item, bool) {
	if len(d.items) == 0 {
		return nil, false
	}
	it := d.items[len(d.items)-1]
	d.items = d.items[:len(d.items)-1]
	return it, true
}

func (d *Locked) PopTopBatch(dst []Item, max int) int {
	n := copy(dst[:max], d.items)
	d.items = d.items[n:]
	return n
}
