#include "codes/code_layout.h"

#include <algorithm>
#include <set>

namespace dcode::codes {

CodeLayout::CodeLayout(std::string name, int p, int rows, int cols,
                       int tolerance)
    : name_(std::move(name)), p_(p), rows_(rows), cols_(cols),
      tolerance_(tolerance) {
  DCODE_CHECK(rows_ > 0 && cols_ > 0, "stripe must be non-empty");
  DCODE_CHECK(tolerance_ >= 1, "a code must tolerate at least one failure");
  kinds_.assign(static_cast<size_t>(rows_) * cols_, ElementKind::kData);
}

void CodeLayout::add_equation(Element parity, std::vector<Element> sources) {
  DCODE_CHECK(!sources.empty(), "parity equation needs at least one source");
  // Canonicalize: sort sources; XOR semantics mean duplicate pairs cancel,
  // so strike out elements appearing an even number of times.
  std::sort(sources.begin(), sources.end());
  std::vector<Element> canonical;
  canonical.reserve(sources.size());
  for (size_t i = 0; i < sources.size();) {
    size_t j = i;
    while (j < sources.size() && sources[j] == sources[i]) ++j;
    if ((j - i) % 2 == 1) canonical.push_back(sources[i]);
    i = j;
  }
  DCODE_CHECK(!canonical.empty(), "equation cancelled to empty source set");
  for (const Element& e : canonical) {
    DCODE_CHECK(e != parity, "parity element cannot be its own source");
    (void)cell_index(e.row, e.col);  // bounds-check
  }
  equations_.push_back(Equation{parity, std::move(canonical)});
}

void CodeLayout::finalize() {
  const size_t ncells = kinds_.size();

  // Data addressing: row-major over data cells.
  data_index_.assign(ncells, -1);
  data_elements_.clear();
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      if (kind(r, c) == ElementKind::kData) {
        data_index_[cell_index(r, c)] = static_cast<int>(data_elements_.size());
        data_elements_.push_back(make_element(r, c));
      }
    }
  }

  // Parity-equation ownership and membership lists.
  parity_equation_.assign(ncells, -1);
  membership_.assign(ncells, {});
  for (size_t qi = 0; qi < equations_.size(); ++qi) {
    const Equation& q = equations_[qi];
    size_t pc = cell_index(q.parity.row, q.parity.col);
    DCODE_CHECK(kinds_[pc] != ElementKind::kData,
                "equation parity must be marked as a parity cell");
    DCODE_CHECK(parity_equation_[pc] == -1,
                "a parity element can store only one equation");
    parity_equation_[pc] = static_cast<int>(qi);
    membership_[pc].push_back(static_cast<int>(qi));
    std::set<Element> seen;
    for (const Element& e : q.sources) {
      DCODE_CHECK(seen.insert(e).second, "duplicate source in equation");
      membership_[cell_index(e.row, e.col)].push_back(static_cast<int>(qi));
    }
  }
  // Every parity cell must store exactly one equation, and every data cell
  // must be protected by at least one.
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      size_t idx = cell_index(r, c);
      if (kinds_[idx] == ElementKind::kData) {
        DCODE_CHECK(!membership_[idx].empty(),
                    "data element not covered by any parity");
      } else {
        DCODE_CHECK(parity_equation_[idx] >= 0,
                    "parity cell without an equation");
      }
    }
  }

  // Topological encode order: an equation is ready once every parity
  // element among its sources has been computed.
  encode_order_.clear();
  std::vector<bool> computed(equations_.size(), false);
  bool progress = true;
  while (encode_order_.size() < equations_.size() && progress) {
    progress = false;
    for (size_t qi = 0; qi < equations_.size(); ++qi) {
      if (computed[qi]) continue;
      bool ready = true;
      for (const Element& e : equations_[qi].sources) {
        size_t idx = cell_index(e.row, e.col);
        if (kinds_[idx] != ElementKind::kData) {
          int dep = parity_equation_[idx];
          if (dep >= 0 && !computed[static_cast<size_t>(dep)]) {
            ready = false;
            break;
          }
        }
      }
      if (ready) {
        computed[qi] = true;
        encode_order_.push_back(static_cast<int>(qi));
        progress = true;
      }
    }
  }
  DCODE_CHECK(encode_order_.size() == equations_.size(),
              "cyclic parity dependencies — layout cannot be encoded");
  encode_rank_.assign(equations_.size(), 0);
  for (size_t i = 0; i < encode_order_.size(); ++i) {
    encode_rank_[static_cast<size_t>(encode_order_[i])] = static_cast<int>(i);
  }
}

std::vector<Element> CodeLayout::elements_on_disk(int disk) const {
  DCODE_CHECK(disk >= 0 && disk < cols_, "disk index out of range");
  std::vector<Element> out;
  out.reserve(static_cast<size_t>(rows_));
  for (int r = 0; r < rows_; ++r) out.push_back(make_element(r, disk));
  return out;
}

int CodeLayout::parity_elements_on_disk(int disk) const {
  DCODE_CHECK(disk >= 0 && disk < cols_, "disk index out of range");
  int n = 0;
  for (int r = 0; r < rows_; ++r) n += is_parity(r, disk) ? 1 : 0;
  return n;
}

}  // namespace dcode::codes
