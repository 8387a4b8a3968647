// CodeLayout: the single abstraction every experiment consumes.
//
// A layout describes one stripe of an array code as
//   * a rows x cols element matrix (cols == number of disks),
//   * a kind (data / parity family) for every cell, and
//   * a list of parity equations, each "parity element = XOR of sources"
//     where sources may be data elements or other parity elements (RDP's
//     diagonals include the row parities; EVENODD's diagonals share the S
//     adjuster).
//
// Encoders, the peeling/GE decoders, the write/read planners, and the I/O
// simulators all operate on this one representation, so adding a code to
// the library means writing exactly one subclass; every test, bench, and
// example picks it up through the registry.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "codes/element.h"
#include "util/check.h"

namespace dcode::codes {

// One XOR parity constraint: buffers satisfy parity == XOR(sources).
struct Equation {
  Element parity;
  std::vector<Element> sources;
};

class CodeLayout {
 public:
  virtual ~CodeLayout() = default;

  CodeLayout(const CodeLayout&) = delete;
  CodeLayout& operator=(const CodeLayout&) = delete;

  const std::string& name() const { return name_; }
  // The prime parameter the code was constructed with (paper's p or n).
  int prime() const { return p_; }
  int rows() const { return rows_; }
  int cols() const { return cols_; }  // == disk count
  // Declared number of concurrent whole-disk failures the code tolerates
  // (2 for the RAID-6 codes, 3 for STAR); verified exhaustively in tests.
  int fault_tolerance() const { return tolerance_; }

  ElementKind kind(int row, int col) const {
    return kinds_[cell_index(row, col)];
  }
  bool is_parity(int row, int col) const {
    return kind(row, col) != ElementKind::kData;
  }

  // --- Parity equations -------------------------------------------------
  const std::vector<Equation>& equations() const { return equations_; }

  // Indices (into equations()) of every equation that *contains* the given
  // element as a source, plus — for a parity element — the equation it
  // stores. This is what the write planner uses to find the parities a
  // data update must touch.
  const std::vector<int>& equations_containing(int row, int col) const {
    return membership_[cell_index(row, col)];
  }

  // For a parity element: the equation stored there (-1 for data cells).
  int equation_of_parity(int row, int col) const {
    return parity_equation_[cell_index(row, col)];
  }

  // Topological evaluation order of equations for encoding (equations whose
  // sources include other parities come after those parities' equations).
  // Empty only if the parity system is cyclic — no code in this library is.
  const std::vector<int>& encode_order() const { return encode_order_; }
  // Position of equation `qi` in encode_order().
  int encode_rank(int qi) const {
    return encode_rank_[static_cast<size_t>(qi)];
  }

  // --- Logical data addressing -------------------------------------------
  // Data elements are numbered row-major (the papers' "continuous data
  // elements" order).
  int data_count() const { return static_cast<int>(data_elements_.size()); }
  Element data_element(int logical_index) const {
    DCODE_CHECK(logical_index >= 0 && logical_index < data_count(),
                "logical data index out of range");
    return data_elements_[static_cast<size_t>(logical_index)];
  }
  // -1 for parity cells.
  int data_index(int row, int col) const {
    return data_index_[cell_index(row, col)];
  }

  int parity_count() const { return static_cast<int>(equations_.size()); }

  // Elements (data + parity) hosted on one disk, ascending by row.
  std::vector<Element> elements_on_disk(int disk) const;
  int parity_elements_on_disk(int disk) const;

 protected:
  CodeLayout(std::string name, int p, int rows, int cols, int tolerance = 2);

  void set_kind(int row, int col, ElementKind k) {
    kinds_[cell_index(row, col)] = k;
  }
  void add_equation(Element parity, std::vector<Element> sources);

  // Validates the structure and builds all derived tables. Must be called
  // at the end of every subclass constructor.
  void finalize();

  size_t cell_index(int row, int col) const {
    DCODE_CHECK(row >= 0 && row < rows_ && col >= 0 && col < cols_,
                "element out of stripe bounds");
    return static_cast<size_t>(row) * cols_ + col;
  }

 private:
  std::string name_;
  int p_;
  int rows_, cols_;
  int tolerance_;
  std::vector<ElementKind> kinds_;
  std::vector<Equation> equations_;
  std::vector<std::vector<int>> membership_;
  std::vector<int> parity_equation_;
  std::vector<int> encode_order_;
  std::vector<int> encode_rank_;
  std::vector<Element> data_elements_;
  std::vector<int> data_index_;
};

}  // namespace dcode::codes
