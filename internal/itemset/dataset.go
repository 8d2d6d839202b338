package itemset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Dataset is an in-memory transaction database.  The paper's experiments on
// the Cray T3E kept transactions in a main-memory buffer and charged I/O
// through a cost model; we follow the same design (see DESIGN.md).
type Dataset struct {
	Transactions []Transaction
	// NumItems is one greater than the largest item that appears (the size
	// of the item vocabulary |I|).
	NumItems int
}

// NewDataset builds a Dataset from raw transactions and computes NumItems.
func NewDataset(txns []Transaction) *Dataset {
	d := &Dataset{Transactions: txns}
	for _, t := range txns {
		if n := len(t.Items); n > 0 {
			if last := int(t.Items[n-1]) + 1; last > d.NumItems {
				d.NumItems = last
			}
		}
	}
	return d
}

// Len returns the number of transactions N.
func (d *Dataset) Len() int { return len(d.Transactions) }

// Bytes returns the total approximate size of the database in bytes,
// the N that the communication analysis of Section IV is measured in.
func (d *Dataset) Bytes() int {
	total := 0
	for _, t := range d.Transactions {
		total += t.Bytes()
	}
	return total
}

// AvgLen returns the average transaction length (the paper's |T| = 15
// workload parameter).
func (d *Dataset) AvgLen() float64 {
	if len(d.Transactions) == 0 {
		return 0
	}
	total := 0
	for _, t := range d.Transactions {
		total += len(t.Items)
	}
	return float64(total) / float64(len(d.Transactions))
}

// Split partitions the dataset into p contiguous, nearly equal shards, the
// "transactions are evenly distributed among the processors" assumption all
// the parallel formulations start from.  Shard i receives transactions
// [i*N/p, (i+1)*N/p).  The shards alias the receiver's backing array.
func (d *Dataset) Split(p int) []*Dataset {
	if p <= 0 {
		panic(fmt.Sprintf("itemset: Split with non-positive p=%d", p))
	}
	shards := make([]*Dataset, p)
	n := len(d.Transactions)
	for i := 0; i < p; i++ {
		lo, hi := i*n/p, (i+1)*n/p
		shards[i] = &Dataset{Transactions: d.Transactions[lo:hi], NumItems: d.NumItems}
	}
	return shards
}

// Pages cuts the dataset into pages of at most pageBytes bytes (at least one
// transaction per page).  DD and IDD move the database between processors
// one page at a time; the page size is the unit of the communication cost
// model.
func (d *Dataset) Pages(pageBytes int) [][]Transaction {
	if pageBytes <= 0 {
		pageBytes = 4096
	}
	var pages [][]Transaction
	start, size := 0, 0
	for i, t := range d.Transactions {
		b := t.Bytes()
		if size > 0 && size+b > pageBytes {
			pages = append(pages, d.Transactions[start:i])
			start, size = i, 0
		}
		size += b
	}
	if start < len(d.Transactions) {
		pages = append(pages, d.Transactions[start:])
	}
	return pages
}

func parseItems(text string) ([]Item, error) {
	var items []Item
	i := 0
	for i < len(text) {
		for i < len(text) && (text[i] == ' ' || text[i] == '\t' || text[i] == '\r') {
			i++
		}
		start := i
		for i < len(text) && text[i] != ' ' && text[i] != '\t' && text[i] != '\r' {
			i++
		}
		if start == i {
			continue
		}
		v, err := strconv.Atoi(text[start:i])
		if err != nil {
			return nil, fmt.Errorf("bad item %q: %w", text[start:i], err)
		}
		if v < 0 {
			return nil, fmt.Errorf("negative item %d", v)
		}
		if v >= math.MaxInt32 { // NumItems = item+1 must itself fit the binary header's bound
			return nil, fmt.Errorf("item %d too large", v)
		}
		items = append(items, Item(v))
	}
	return items, nil
}

// Write emits the dataset in the basket-file format accepted by Read.
func Write(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	for _, t := range d.Transactions {
		for i, it := range t.Items {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return fmt.Errorf("itemset: writing dataset: %w", err)
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(int(it))); err != nil {
				return fmt.Errorf("itemset: writing dataset: %w", err)
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("itemset: writing dataset: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("itemset: flushing dataset: %w", err)
	}
	return nil
}
