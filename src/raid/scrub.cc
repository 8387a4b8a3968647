// Parity scrub and write-path integrity repair. Scrub verifies every
// XOR equation of every stripe, tolerates degraded arrays, and (in
// repair mode) localizes and rewrites silent corruption; the write path's
// clean_stripe_integrity / salvage_stripe_rewrite repair a stripe whose
// RMW pre-read failed verification. All three get their stripe from
// reconstruct_stripe() (reconstruct.cc) and write back only what it
// re-verified.
//
// Two localization channels, tried in order:
//
//  * Checksum sidecar (ScrubOptions::use_checksums, the default when the
//    array maintains integrity records): reconstruct_stripe classifies
//    every live element against its recorded checksum + write-identity
//    tag, so a corrupt/misdirected/stale element is condemned DIRECTLY —
//    no syndrome agreement needed — and repairs it from surviving
//    equations or, failing that, by decoding through the dead columns,
//    accepting only bytes that re-verify. This repairs cases the
//    parity-only channel must give up on (several corrupt elements,
//    disagreeing families) and is the only channel that sees whole-stripe
//    stale writes (parity-consistent rollbacks). The stripe is still
//    judged as found: a suspect counts with its bytes as read.
//
//  * Parity syndromes: a single corrupted element with XOR delta D
//    leaves exactly the equations that contain it unsatisfied, each with
//    syndrome D. The membership sets are distinct per element (a row and
//    a diagonal intersect in one cell; parities own their equation), so
//    "unsatisfied set == membership set, all syndromes equal" pins the
//    corruption to one element and D is the repair patch. Anything else
//    is unrepairable from parity alone — reported split by reason:
//    degraded equations (a member disk is dead) vs family disagreement.
//
// Scrub takes NO stripe locks: its chunks run on the same pool user
// writes fan out over, so blocking a pool worker on a stripe lock held
// by a writer that is itself waiting for pool workers would deadlock.
// Callers quiesce writes and rebuild first (see scrub_report() docs).
#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>

#include "codes/encoder.h"
#include "codes/stripe.h"
#include "obs/trace.h"
#include "raid/raid6_array.h"
#include "xorops/xor_region.h"

namespace dcode::raid {

using codes::CodeLayout;
using codes::Element;
using codes::Equation;
using codes::Stripe;

namespace {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool all_zero(const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

}  // namespace

int64_t Raid6Array::scrub() {
  return static_cast<int64_t>(scrub_report().inconsistent_stripes.size());
}

ScrubReport Raid6Array::scrub_report(ScrubOptions options) {
  ensure_online();
  const CodeLayout& layout = *layout_;
  const int64_t t0 = now_ns();
  metrics_.scrubs->inc();
  const bool use_ck = options.use_checksums && engine_.integrity_enabled();
  obs::Span span(obs::TraceLog::global(), "scrub",
                 {{"stripes", stripes_},
                  {"repair", options.repair},
                  {"checksums", use_ck}});
  ScrubReport report;
  report.stripes_checked = stripes_;
  const auto& equations = layout.equations();
  std::mutex agg_mu;
  pool_.parallel_for_chunked(
      static_cast<size_t>(stripes_), [&](size_t begin, size_t end) {
        StripeScratch x(layout, element_size_);
        const Stripe& s = x.buf;
        std::vector<uint8_t> syndrome(element_size_);
        std::vector<uint8_t> delta(element_size_);
        std::vector<int> bad;
        ScrubReport local;
        for (size_t st = begin; st < end; ++st) {
          const int64_t stripe = static_cast<int64_t>(st);
          // Per-stripe retry: a disk can fail (or escalate through its
          // health budget and get a spare promoted) while this stripe is
          // being read — the engine surfaces that as DiskFailedError.
          // Retry from scratch with a fresh dead set so the lost disk's
          // equations are skipped; stripe-local tallies merge into the
          // chunk report only on success, so a retry never double-counts.
          for (int attempt = 0;; ++attempt) {
            ScrubReport tally;
            try {
              // Raw reads: scrub judges the bytes itself. With the
              // checksum channel on, every live element is classified
              // and the condemned ones are repaired in memory — through
              // the dead columns when single equations cannot reach
              // them; nothing is written unless this is a repair scrub.
              reconstruct_stripe(stripe, x,
                                 use_ck ? StripeRead::kClassified
                                        : StripeRead::kRaw,
                                 /*want_lost=*/false);
              const bool any_dead = !x.lost_cols.empty();
              int64_t corrupt_suspects = 0;
              for (const Suspect& sus : x.suspects) {
                ++tally.checksum_mismatches;
                if (sus.verdict == IntegrityVerdict::kStale) {
                  ++tally.elements_stale;
                } else {
                  ++corrupt_suspects;
                }
              }

              // Evaluate every parity equation. The first pass judges
              // the stripe as found (a suspect's bytes as read) and
              // counts into the tally; re-evaluations after a repair
              // only refresh `bad`/`delta`.
              bool deltas_agree = true;
              auto evaluate = [&](bool as_found) {
                auto at = [&](const Element& e) {
                  return as_found ? x.as_found(e) : s.at(e);
                };
                bad.clear();
                deltas_agree = true;
                for (size_t qi = 0; qi < equations.size(); ++qi) {
                  const Equation& eq = equations[qi];
                  bool skip = x.lost(eq.parity.col);
                  for (const Element& src : eq.sources) {
                    skip = skip || x.lost(src.col);
                  }
                  if (skip) {
                    if (as_found) ++tally.equations_skipped;
                    continue;
                  }
                  if (as_found) ++tally.equations_checked;
                  std::memcpy(syndrome.data(), at(eq.parity), element_size_);
                  for (const Element& src : eq.sources) {
                    xorops::xor_into(syndrome.data(), at(src), element_size_);
                  }
                  if (all_zero(syndrome.data(), element_size_)) continue;
                  if (bad.empty()) {
                    std::memcpy(delta.data(), syndrome.data(),
                                element_size_);
                  } else if (std::memcmp(delta.data(), syndrome.data(),
                                         element_size_) != 0) {
                    deltas_agree = false;
                  }
                  bad.push_back(static_cast<int>(qi));
                }
              };
              evaluate(/*as_found=*/true);
              // Writes back every suspect the reconstruction repaired
              // and re-verified.
              auto write_repaired = [&] {
                int64_t n = 0;
                for (const Suspect& sus : x.suspects) {
                  if (!sus.repaired) continue;
                  engine_.write_element(map_.physical_disk(stripe, sus.e.col),
                                        stripe, sus.e.row, s.at(sus.e));
                  ++n;
                }
                tally.elements_located += n;
                tally.elements_checksum_located += n;
                tally.elements_repaired += n;
                return n;
              };

              if (bad.empty()) {
                if (!x.suspects.empty() && corrupt_suspects == 0) {
                  // Every evaluable equation holds, yet the sidecar says
                  // the content is old: a whole-stripe rollback (the
                  // write of data AND parity lost together) — invisible
                  // to parity, and redundancy holds no newer copy, so
                  // this is reportable, never repairable. Repair mode
                  // accepts the rollback and resyncs the sidecar so
                  // reads stop condemning bytes nothing can improve; the
                  // report row is the only remaining trace.
                  tally.stale_stripes.push_back(stripe);
                  if (options.repair) {
                    for (int c = 0; c < layout.cols(); ++c) {
                      if (x.lost(c)) continue;
                      const int pd = map_.physical_disk(stripe, c);
                      for (int r = 0; r < layout.rows(); ++r) {
                        engine_.resync_element_integrity(
                            pd, stripe, r,
                            x.as_found(codes::make_element(r, c)));
                      }
                    }
                  }
                } else if (!x.suspects.empty()) {
                  // Corrupt/misdirected verdicts while every evaluable
                  // equation holds: real damage hidden behind
                  // dead-skipped equations (or a parity-consistent
                  // foreign image). NOT a rollback — resyncing would
                  // bless wrong bytes. Report it; repair mode writes
                  // back what the reconstruction re-verified.
                  tally.inconsistent_stripes.push_back(stripe);
                  if (options.repair) {
                    write_repaired();
                    if (x.condemned()) {
                      ++tally.stripes_unrepairable;
                      ++(any_dead ? tally.stripes_skipped_degraded
                                  : tally.stripes_family_disagreement);
                    }
                  }
                }
              } else {
                tally.inconsistent_stripes.push_back(stripe);
                if (options.repair) {
                  // Checksum-assisted localization first: the sidecar
                  // names the condemned elements directly, so repair
                  // works even where the two families' syndromes
                  // disagree (several corrupt elements).
                  if (write_repaired() > 0) evaluate(/*as_found=*/false);
                  const bool fixed = bad.empty();
                  if (!fixed && (any_dead || !deltas_agree)) {
                    // Skipped equations make the membership comparison
                    // unsound; disagreeing deltas mean >1 corrupt
                    // element — beyond the parity-only channel.
                    ++tally.stripes_unrepairable;
                    ++(any_dead ? tally.stripes_skipped_degraded
                                : tally.stripes_family_disagreement);
                  } else if (!fixed) {
                    // `bad` is ascending by construction and membership
                    // lists are built in equation order, so set equality
                    // is a straight vector compare.
                    int hits = 0;
                    Element culprit{};
                    for (int c = 0; c < layout.cols() && hits < 2; ++c) {
                      for (int r = 0; r < layout.rows() && hits < 2; ++r) {
                        if (layout.equations_containing(r, c) == bad) {
                          culprit = codes::make_element(r, c);
                          ++hits;
                        }
                      }
                    }
                    if (hits != 1) {
                      ++tally.stripes_unrepairable;
                      ++tally.stripes_family_disagreement;
                    } else {
                      ++tally.elements_located;
                      xorops::xor_into(x.buf.at(culprit), delta.data(),
                                       element_size_);
                      engine_.write_element(
                          map_.physical_disk(stripe, culprit.col), stripe,
                          culprit.row, s.at(culprit));
                      ++tally.elements_repaired;
                    }
                  }
                }
              }
            } catch (const DiskFailedError&) {
              if (attempt >= 4) throw;
              continue;
            }
            local.equations_checked += tally.equations_checked;
            local.equations_skipped += tally.equations_skipped;
            local.elements_located += tally.elements_located;
            local.elements_repaired += tally.elements_repaired;
            local.stripes_unrepairable += tally.stripes_unrepairable;
            local.stripes_skipped_degraded += tally.stripes_skipped_degraded;
            local.stripes_family_disagreement +=
                tally.stripes_family_disagreement;
            local.checksum_mismatches += tally.checksum_mismatches;
            local.elements_checksum_located +=
                tally.elements_checksum_located;
            local.elements_stale += tally.elements_stale;
            local.inconsistent_stripes.insert(
                local.inconsistent_stripes.end(),
                tally.inconsistent_stripes.begin(),
                tally.inconsistent_stripes.end());
            local.stale_stripes.insert(local.stale_stripes.end(),
                                       tally.stale_stripes.begin(),
                                       tally.stale_stripes.end());
            break;
          }
        }
        std::lock_guard<std::mutex> lock(agg_mu);
        report.inconsistent_stripes.insert(report.inconsistent_stripes.end(),
                                           local.inconsistent_stripes.begin(),
                                           local.inconsistent_stripes.end());
        report.stale_stripes.insert(report.stale_stripes.end(),
                                    local.stale_stripes.begin(),
                                    local.stale_stripes.end());
        report.equations_checked += local.equations_checked;
        report.equations_skipped += local.equations_skipped;
        report.elements_located += local.elements_located;
        report.elements_repaired += local.elements_repaired;
        report.stripes_unrepairable += local.stripes_unrepairable;
        report.stripes_skipped_degraded += local.stripes_skipped_degraded;
        report.stripes_family_disagreement +=
            local.stripes_family_disagreement;
        report.checksum_mismatches += local.checksum_mismatches;
        report.elements_checksum_located += local.elements_checksum_located;
        report.elements_stale += local.elements_stale;
      });
  std::sort(report.inconsistent_stripes.begin(),
            report.inconsistent_stripes.end());
  std::sort(report.stale_stripes.begin(), report.stale_stripes.end());
  metrics_.scrub_stripes_checked->inc(stripes_);
  metrics_.scrub_stripes_inconsistent->inc(
      static_cast<int64_t>(report.inconsistent_stripes.size()));
  metrics_.scrub_equations_skipped->inc(report.equations_skipped);
  metrics_.scrub_elements_located->inc(report.elements_located);
  metrics_.scrub_elements_repaired->inc(report.elements_repaired);
  metrics_.scrub_stripes_unrepairable->inc(report.stripes_unrepairable);
  metrics_.scrub_stripes_skipped_degraded->inc(
      report.stripes_skipped_degraded);
  metrics_.scrub_family_disagreements->inc(
      report.stripes_family_disagreement);
  metrics_.scrub_checksum_located->inc(report.elements_checksum_located);
  metrics_.scrub_elements_stale->inc(report.elements_stale);
  metrics_.scrub_stripes_stale->inc(
      static_cast<int64_t>(report.stale_stripes.size()));
  metrics_.scrub_latency_ns->observe(now_ns() - t0);
  if (!report.inconsistent_stripes.empty()) {
    span.note("scrub.inconsistent",
              {{"count",
                static_cast<int64_t>(report.inconsistent_stripes.size())},
               {"repaired", report.elements_repaired},
               {"checksum_located", report.elements_checksum_located},
               {"unrepairable", report.stripes_unrepairable}});
  }
  if (!report.stale_stripes.empty()) {
    span.note("scrub.stale",
              {{"stripes", static_cast<int64_t>(report.stale_stripes.size())},
               {"elements", report.elements_stale}});
  }
  return report;
}

void Raid6Array::clean_stripe_integrity(int64_t stripe, StripeScratch& x) {
  if (!engine_.integrity_enabled()) return;
  const CodeLayout& layout = *layout_;
  obs::Span span(obs::TraceLog::global(), "integrity.clean_stripe",
                 {{"stripe", stripe}});
  reconstruct_stripe(stripe, x, StripeRead::kClassified, /*want_lost=*/false);
  std::vector<Element> repaired;
  for (const Suspect& sus : x.suspects) {
    if (sus.repaired) repaired.push_back(sus.e);
  }
  // Data is authoritative for derived parity: an equation whose members
  // are all live and trusted but which still fails can only be the
  // mid-update window (the data writes landed, the parity catch-up write
  // never did because verify condemned its pre-read) — re-encode that
  // parity from its sources so the retried RMW starts from a consistent
  // stripe.
  auto trusted = [&](const Element& e) {
    if (x.lost(e.col)) return false;
    for (const Suspect& sus : x.suspects) {
      if (sus.e == e && !sus.repaired) return false;
    }
    return true;
  };
  std::vector<uint8_t> syndrome(element_size_);
  for (const Equation& q : layout.equations()) {
    bool usable = trusted(q.parity);
    for (const Element& src : q.sources) usable = usable && trusted(src);
    if (!usable) continue;
    std::memcpy(syndrome.data(), x.buf.at(q.parity), element_size_);
    for (const Element& src : q.sources) {
      xorops::xor_into(syndrome.data(), x.buf.at(src), element_size_);
    }
    if (all_zero(syndrome.data(), element_size_)) continue;
    xorops::xor_into(x.buf.at(q.parity), syndrome.data(), element_size_);
    repaired.push_back(q.parity);
  }
  for (const Element& e : repaired) {
    engine_.write_element(map_.physical_disk(stripe, e.col), stripe, e.row,
                          x.buf.at(e));
  }
  if (!repaired.empty()) metrics_.integrity_write_repairs->inc();
  span.note("integrity.clean_stripe.done",
            {{"condemned", static_cast<int64_t>(x.suspects.size())},
             {"repaired", static_cast<int64_t>(repaired.size())}});
}

void Raid6Array::salvage_stripe_rewrite(StripeScratch& x, int64_t stripe,
                                        int64_t g, int64_t stripe_end,
                                        int64_t offset,
                                        std::span<const uint8_t> data) {
  // Why clean_stripe_integrity alone is not enough: a misdirected data
  // write caught at the RMW parity pre-read leaves the stripe with new
  // data on the healthy columns, a condemned victim column, and parity
  // that is still uniformly pre-update. Every equation through the
  // victim then mixes old parity with new data, so reconstruction
  // candidates can never re-verify — the in-place repair loops without
  // progress. The caller's buffer breaks the deadlock: salvage the old
  // bytes that are still derivable, overlay the incoming data, re-encode
  // parity from the data alone and rewrite the stripe, refreshing every
  // sidecar record.
  const CodeLayout& layout = *layout_;
  obs::Span span(obs::TraceLog::global(), "integrity.salvage_rewrite",
                 {{"stripe", stripe}});
  // Condemned elements whose pre-update payload is still derivable come
  // back re-verified against the sidecar, so mid-update parity cannot
  // fake a salvage; the lost columns are decoded through them.
  const bool decoded =
      reconstruct_stripe(stripe, x, StripeRead::kClassified);
  // Parity is recomputed from the data below, so condemned parity needs
  // no old bytes; neither does a data element the incoming write covers
  // wholesale. Anything else still condemned is genuinely gone — refuse
  // rather than hand the caller silent garbage.
  std::vector<Element> covered;
  for (int64_t e = g; e <= stripe_end; ++e) {
    size_t eb, sb, len;
    overlay_range(e, offset, static_cast<int64_t>(data.size()),
                  static_cast<int64_t>(element_size_), &eb, &sb, &len);
    if (len == element_size_) covered.push_back(map_.locate(e).element);
  }
  for (const Suspect& sus : x.suspects) {
    if (sus.repaired || layout.is_parity(sus.e.row, sus.e.col) ||
        std::find(covered.begin(), covered.end(), sus.e) != covered.end()) {
      continue;
    }
    throw ElementIntegrityError(map_.physical_disk(stripe, sus.e.col), stripe,
                                sus.e.row, sus.verdict);
  }
  if (!x.lost_cols.empty()) {
    // Decoding a dead column folds parity, which is only sound when the
    // surviving stripe is internally consistent (pre-update). Residual
    // condemned state or a failing fully-live equation (mid-update)
    // cannot be decoded through — refuse instead of writing back a
    // silently wrong reconstruction.
    if (!decoded) throw_unrecovered(stripe, x);
    std::vector<uint8_t> syndrome(element_size_);
    for (const Equation& q : layout.equations()) {
      bool usable = !x.lost(q.parity.col);
      for (const Element& src : q.sources) {
        usable = usable && !x.lost(src.col);
      }
      if (!usable) continue;
      std::memcpy(syndrome.data(), x.buf.at(q.parity), element_size_);
      for (const Element& src : q.sources) {
        xorops::xor_into(syndrome.data(), x.buf.at(src), element_size_);
      }
      if (!all_zero(syndrome.data(), element_size_)) {
        throw ElementIntegrityError(map_.physical_disk(stripe, q.parity.col),
                                    stripe, q.parity.row,
                                    IntegrityVerdict::kCorrupt);
      }
    }
  }
  for (int64_t e = g; e <= stripe_end; ++e) {
    const auto loc = map_.locate(e);
    size_t eb, sb, len;
    overlay_range(e, offset, static_cast<int64_t>(data.size()),
                  static_cast<int64_t>(element_size_), &eb, &sb, &len);
    std::memcpy(x.buf.at(loc.element) + eb, data.data() + sb, len);
  }
  codes::encode_stripe(x.buf);
  x.wops.clear();
  for (int c = 0; c < layout.cols(); ++c) {
    if (x.lost(c)) continue;
    const int pd = map_.physical_disk(stripe, c);
    for (int r = 0; r < layout.rows(); ++r) {
      x.wops.push_back({pd, stripe, r, x.buf.at(r, c)});
    }
  }
  engine_.write_batch(x.wops);
  metrics_.integrity_write_repairs->inc();
  const auto salvaged =
      std::count_if(x.suspects.begin(), x.suspects.end(),
                    [](const Suspect& sus) { return sus.repaired; });
  span.note("integrity.salvage_rewrite.done",
            {{"salvaged", static_cast<int64_t>(salvaged)},
             {"writes", static_cast<int64_t>(x.wops.size())}});
}

}  // namespace dcode::raid
