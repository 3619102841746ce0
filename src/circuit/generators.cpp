#include "circuit/generators.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace lv::circuit {

namespace u = lv::util;

namespace {

std::string idx_name(const std::string& base, int i) {
  return base + std::to_string(i);
}

Bus ensure_bus(Netlist& nl, Bus given, const std::string& prefix, int width) {
  if (given.empty()) return make_input_bus(nl, prefix, width);
  u::require(static_cast<int>(given.size()) == width,
             "generator: provided bus '" + prefix + "' has wrong width");
  return given;
}

NetId tie0(Netlist& nl, const std::string& name) {
  return nl.add_gate(CellKind::tie0, name, {});
}

}  // namespace

Bus make_input_bus(Netlist& nl, const std::string& prefix, int width) {
  u::require(width >= 1, "make_input_bus: width must be >= 1");
  Bus bus;
  bus.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) bus.push_back(nl.add_input(idx_name(prefix, i)));
  return bus;
}

FullAdderPorts build_full_adder(Netlist& nl, NetId a, NetId b, NetId cin,
                                const std::string& name,
                                const std::string& module) {
  const NetId axb = nl.add_gate(CellKind::xor2, name + "_x", {a, b}, module);
  FullAdderPorts out;
  out.sum = nl.add_gate(CellKind::xor2, name + "_s", {axb, cin}, module);
  const NetId g = nl.add_gate(CellKind::and2, name + "_g", {a, b}, module);
  const NetId p = nl.add_gate(CellKind::and2, name + "_p", {axb, cin}, module);
  out.cout = nl.add_gate(CellKind::or2, name + "_c", {g, p}, module);
  return out;
}

AdderPorts build_ripple_carry_adder(Netlist& nl, int width,
                                    const std::string& module, Bus a, Bus b,
                                    NetId cin, bool mark_outputs) {
  u::require(width >= 1, "rca: width must be >= 1");
  AdderPorts ports;
  ports.a = ensure_bus(nl, std::move(a), module + "_a", width);
  ports.b = ensure_bus(nl, std::move(b), module + "_b", width);
  ports.cin = cin == kInvalidNet ? tie0(nl, module + "_cin0") : cin;

  NetId carry = ports.cin;
  for (int i = 0; i < width; ++i) {
    const auto fa = build_full_adder(nl, ports.a[static_cast<std::size_t>(i)],
                                     ports.b[static_cast<std::size_t>(i)],
                                     carry, module + "_fa" + std::to_string(i),
                                     module);
    ports.sum.push_back(fa.sum);
    carry = fa.cout;
  }
  ports.cout = carry;
  if (mark_outputs) {
    for (const NetId s : ports.sum) nl.mark_output(s);
    nl.mark_output(ports.cout);
  }
  return ports;
}

AdderPorts build_carry_lookahead_adder(Netlist& nl, int width,
                                       const std::string& module, Bus a,
                                       Bus b, bool mark_outputs) {
  u::require(width >= 1, "cla: width must be >= 1");
  AdderPorts ports;
  ports.a = ensure_bus(nl, std::move(a), module + "_a", width);
  ports.b = ensure_bus(nl, std::move(b), module + "_b", width);
  ports.cin = tie0(nl, module + "_cin0");

  // Per-bit propagate/generate.
  std::vector<NetId> p(static_cast<std::size_t>(width));
  std::vector<NetId> g(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    p[ii] = nl.add_gate(CellKind::xor2, module + "_p" + std::to_string(i),
                        {ports.a[ii], ports.b[ii]}, module);
    g[ii] = nl.add_gate(CellKind::and2, module + "_g" + std::to_string(i),
                        {ports.a[ii], ports.b[ii]}, module);
  }

  // 4-bit lookahead groups. Within a group every carry is a flat AND-OR
  // of (p, g, group_cin) — no chaining on intermediate carries — and the
  // next group's carry comes from group generate/propagate:
  //   cg_{k+1} = G_k + P_k * cg_k,
  // so the inter-group chain costs two gate levels per group instead of
  // two per *bit* as in the ripple adder.
  auto and_tree = [&](std::vector<NetId> terms, const std::string& tag) {
    int round = 0;
    while (terms.size() > 1) {
      std::vector<NetId> next;
      for (std::size_t k = 0; k + 1 < terms.size(); k += 2)
        next.push_back(nl.add_gate(
            CellKind::and2,
            tag + "_a" + std::to_string(round) + "_" + std::to_string(k / 2),
            {terms[k], terms[k + 1]}, module));
      if (terms.size() % 2) next.push_back(terms.back());
      terms = std::move(next);
      ++round;
    }
    return terms.front();
  };
  auto or_tree = [&](std::vector<NetId> terms, const std::string& tag) {
    int round = 0;
    while (terms.size() > 1) {
      std::vector<NetId> next;
      for (std::size_t k = 0; k + 1 < terms.size(); k += 2)
        next.push_back(nl.add_gate(
            CellKind::or2,
            tag + "_o" + std::to_string(round) + "_" + std::to_string(k / 2),
            {terms[k], terms[k + 1]}, module));
      if (terms.size() % 2) next.push_back(terms.back());
      terms = std::move(next);
      ++round;
    }
    return terms.front();
  };

  NetId carry = ports.cin;
  int grp = 0;
  for (int base = 0; base < width; base += 4, ++grp) {
    const int limit = std::min(base + 4, width);
    const std::string gt = module + "_g" + std::to_string(grp);

    // Carry into each bit of the group, flattened from group_cin.
    std::vector<NetId> bit_carry(static_cast<std::size_t>(limit - base));
    bit_carry[0] = carry;
    for (int i = base + 1; i < limit; ++i) {
      std::vector<NetId> terms;
      // group_cin * p[base..i-1]
      {
        std::vector<NetId> chain{carry};
        for (int k = base; k < i; ++k)
          chain.push_back(p[static_cast<std::size_t>(k)]);
        terms.push_back(and_tree(chain, gt + "_cin" + std::to_string(i)));
      }
      // g[j] * p[j+1..i-1]
      for (int j = base; j < i; ++j) {
        std::vector<NetId> chain{g[static_cast<std::size_t>(j)]};
        for (int k = j + 1; k < i; ++k)
          chain.push_back(p[static_cast<std::size_t>(k)]);
        terms.push_back(and_tree(chain, gt + "_t" + std::to_string(i) + "_" +
                                            std::to_string(j)));
      }
      bit_carry[static_cast<std::size_t>(i - base)] =
          or_tree(std::move(terms), gt + "_c" + std::to_string(i));
    }
    for (int i = base; i < limit; ++i)
      ports.sum.push_back(nl.add_gate(
          CellKind::xor2, module + "_s" + std::to_string(i),
          {p[static_cast<std::size_t>(i)],
           bit_carry[static_cast<std::size_t>(i - base)]},
          module));

    // Group generate / propagate -> next group's carry.
    std::vector<NetId> p_all;
    for (int k = base; k < limit; ++k)
      p_all.push_back(p[static_cast<std::size_t>(k)]);
    const NetId group_p = and_tree(p_all, gt + "_P");
    std::vector<NetId> g_terms;
    for (int j = base; j < limit; ++j) {
      std::vector<NetId> chain{g[static_cast<std::size_t>(j)]};
      for (int k = j + 1; k < limit; ++k)
        chain.push_back(p[static_cast<std::size_t>(k)]);
      g_terms.push_back(and_tree(chain, gt + "_G" + std::to_string(j)));
    }
    const NetId group_g = or_tree(std::move(g_terms), gt + "_G");
    const NetId pc = nl.add_gate(CellKind::and2, gt + "_Pc",
                                 {group_p, carry}, module);
    carry = nl.add_gate(CellKind::or2, gt + "_cout", {group_g, pc}, module);
  }
  ports.cout = carry;
  if (mark_outputs) {
    for (const NetId s : ports.sum) nl.mark_output(s);
    nl.mark_output(ports.cout);
  }
  return ports;
}

AdderPorts build_carry_select_adder(Netlist& nl, int width, int block,
                                    const std::string& module, Bus a, Bus b,
                                    bool mark_outputs) {
  u::require(width >= 1 && block >= 1, "csa: bad width/block");
  AdderPorts ports;
  ports.a = ensure_bus(nl, std::move(a), module + "_a", width);
  ports.b = ensure_bus(nl, std::move(b), module + "_b", width);
  ports.cin = tie0(nl, module + "_cin0");

  NetId carry = ports.cin;
  int blk_no = 0;
  for (int base = 0; base < width; base += block, ++blk_no) {
    const int limit = std::min(base + block, width);
    const std::string tag = module + "_blk" + std::to_string(blk_no);
    // Two speculative adder chains: carry-in 0 and carry-in 1.
    NetId c0 = tie0(nl, tag + "_c0in");
    NetId c1 = nl.add_gate(CellKind::tie1, tag + "_c1in", {});
    std::vector<NetId> s0;
    std::vector<NetId> s1;
    for (int i = base; i < limit; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      const auto fa0 = build_full_adder(nl, ports.a[ii], ports.b[ii], c0,
                                        tag + "_fa0_" + std::to_string(i),
                                        module);
      const auto fa1 = build_full_adder(nl, ports.a[ii], ports.b[ii], c1,
                                        tag + "_fa1_" + std::to_string(i),
                                        module);
      s0.push_back(fa0.sum);
      s1.push_back(fa1.sum);
      c0 = fa0.cout;
      c1 = fa1.cout;
    }
    // Select with the true block carry-in.
    for (int i = base; i < limit; ++i) {
      const auto k = static_cast<std::size_t>(i - base);
      ports.sum.push_back(nl.add_gate(CellKind::mux2,
                                      tag + "_sel" + std::to_string(i),
                                      {s0[k], s1[k], carry}, module));
    }
    carry = nl.add_gate(CellKind::mux2, tag + "_selc", {c0, c1, carry}, module);
  }
  ports.cout = carry;
  if (mark_outputs) {
    for (const NetId s : ports.sum) nl.mark_output(s);
    nl.mark_output(ports.cout);
  }
  return ports;
}

MultiplierPorts build_array_multiplier(Netlist& nl, int width,
                                       const std::string& module, Bus a,
                                       Bus b, bool mark_outputs) {
  u::require(width >= 1, "mul: width must be >= 1");
  MultiplierPorts ports;
  ports.a = ensure_bus(nl, std::move(a), module + "_a", width);
  ports.b = ensure_bus(nl, std::move(b), module + "_b", width);

  const auto w = static_cast<std::size_t>(width);
  // Partial products pp[i][j] = a[j] & b[i].
  auto pp = [&](std::size_t i, std::size_t j) {
    return nl.add_gate(CellKind::and2,
                       module + "_pp" + std::to_string(i) + "_" +
                           std::to_string(j),
                       {ports.a[j], ports.b[i]}, module);
  };

  // Row 0 is pp[0][*]; each later row adds pp[i][*] shifted left by i.
  std::vector<NetId> acc(w);  // running sum bits i .. i+w-1
  for (std::size_t j = 0; j < w; ++j) acc[j] = pp(0, j);
  ports.product.push_back(acc[0]);

  NetId high_carry = kInvalidNet;  // carry-out chain into the top bits
  for (std::size_t i = 1; i < w; ++i) {
    NetId carry = tie0(nl, module + "_r" + std::to_string(i) + "_c0");
    std::vector<NetId> next(w);
    for (std::size_t j = 0; j < w; ++j) {
      // acc bit (j+1) of previous row aligns with pp[i][j]; top slot uses
      // the previous row's carry-out (or zero for row 1).
      NetId addend;
      if (j + 1 < w) {
        addend = acc[j + 1];
      } else {
        addend = (i == 1) ? tie0(nl, module + "_r1_top0") : high_carry;
      }
      const auto fa = build_full_adder(
          nl, addend, pp(i, j), carry,
          module + "_fa" + std::to_string(i) + "_" + std::to_string(j),
          module);
      next[j] = fa.sum;
      carry = fa.cout;
    }
    high_carry = carry;
    acc = std::move(next);
    ports.product.push_back(acc[0]);
  }
  for (std::size_t j = 1; j < w; ++j) ports.product.push_back(acc[j]);
  ports.product.push_back(
      width == 1 ? tie0(nl, module + "_top0") : high_carry);

  if (mark_outputs)
    for (const NetId n : ports.product) nl.mark_output(n);
  return ports;
}

MultiplierPorts build_wallace_multiplier(Netlist& nl, int width,
                                         const std::string& module, Bus a,
                                         Bus b, bool mark_outputs) {
  u::require(width >= 2, "wallace: width must be >= 2");
  MultiplierPorts ports;
  ports.a = ensure_bus(nl, std::move(a), module + "_a", width);
  ports.b = ensure_bus(nl, std::move(b), module + "_b", width);

  const auto w = static_cast<std::size_t>(width);
  const std::size_t out_bits = 2 * w;
  // Per output weight, the list of partial-product bits at that weight.
  std::vector<std::vector<NetId>> columns(out_bits);
  for (std::size_t i = 0; i < w; ++i) {
    for (std::size_t j = 0; j < w; ++j) {
      columns[i + j].push_back(nl.add_gate(
          CellKind::and2,
          module + "_pp" + std::to_string(i) + "_" + std::to_string(j),
          {ports.a[j], ports.b[i]}, module));
    }
  }

  // 3:2 / 2:2 compression until every column holds at most two bits.
  int layer = 0;
  auto needs_reduction = [&]() {
    for (const auto& col : columns)
      if (col.size() > 2) return true;
    return false;
  };
  while (needs_reduction()) {
    std::vector<std::vector<NetId>> next(out_bits);
    for (std::size_t col = 0; col < out_bits; ++col) {
      auto& bits = columns[col];
      std::size_t k = 0;
      int unit = 0;
      while (bits.size() - k >= 3) {
        const std::string tag = module + "_c" + std::to_string(layer) + "_" +
                                std::to_string(col) + "_" +
                                std::to_string(unit++);
        const auto fa =
            build_full_adder(nl, bits[k], bits[k + 1], bits[k + 2], tag,
                             module);
        next[col].push_back(fa.sum);
        if (col + 1 < out_bits) next[col + 1].push_back(fa.cout);
        k += 3;
      }
      if (bits.size() - k == 2) {
        // Half adder (XOR + AND) to keep layers shrinking.
        const std::string tag = module + "_h" + std::to_string(layer) + "_" +
                                std::to_string(col);
        next[col].push_back(nl.add_gate(CellKind::xor2, tag + "_s",
                                        {bits[k], bits[k + 1]}, module));
        if (col + 1 < out_bits)
          next[col + 1].push_back(nl.add_gate(CellKind::and2, tag + "_c",
                                              {bits[k], bits[k + 1]},
                                              module));
        k += 2;
      }
      for (; k < bits.size(); ++k) next[col].push_back(bits[k]);
    }
    columns = std::move(next);
    ++layer;
  }

  // Final carry-propagate addition of the two remaining rows. Columns may
  // hold 0, 1, or 2 bits; pad with tie-0.
  Bus row0;
  Bus row1;
  const NetId zero = tie0(nl, module + "_z0");
  for (std::size_t col = 0; col < out_bits; ++col) {
    row0.push_back(columns[col].size() > 0 ? columns[col][0] : zero);
    row1.push_back(columns[col].size() > 1 ? columns[col][1] : zero);
  }
  const auto cpa = build_kogge_stone_adder(
      nl, static_cast<int>(out_bits), module + ".cpa", row0, row1,
      /*mark_outputs=*/false);
  ports.product = cpa.sum;  // the 2w-bit product; cpa.cout is always 0

  if (mark_outputs)
    for (const NetId n : ports.product) nl.mark_output(n);
  return ports;
}

AdderPorts build_carry_skip_adder(Netlist& nl, int width, int block,
                                  const std::string& module, Bus a, Bus b,
                                  bool mark_outputs) {
  u::require(width >= 1 && block >= 2, "cskip: bad width/block");
  AdderPorts ports;
  ports.a = ensure_bus(nl, std::move(a), module + "_a", width);
  ports.b = ensure_bus(nl, std::move(b), module + "_b", width);
  ports.cin = tie0(nl, module + "_cin0");

  NetId carry = ports.cin;
  int blk = 0;
  for (int base = 0; base < width; base += block, ++blk) {
    const int limit = std::min(base + block, width);
    const std::string tag = module + "_blk" + std::to_string(blk);
    // Ripple within the block; collect per-bit propagates.
    NetId c = carry;
    NetId group_p = kInvalidNet;
    for (int i = base; i < limit; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      const NetId p = nl.add_gate(CellKind::xor2,
                                  tag + "_p" + std::to_string(i),
                                  {ports.a[ii], ports.b[ii]}, module);
      ports.sum.push_back(nl.add_gate(
          CellKind::xor2, tag + "_s" + std::to_string(i), {p, c}, module));
      const NetId g = nl.add_gate(CellKind::and2,
                                  tag + "_g" + std::to_string(i),
                                  {ports.a[ii], ports.b[ii]}, module);
      const NetId pc = nl.add_gate(CellKind::and2,
                                   tag + "_pc" + std::to_string(i), {p, c},
                                   module);
      c = nl.add_gate(CellKind::or2, tag + "_c" + std::to_string(i), {g, pc},
                      module);
      group_p = group_p == kInvalidNet
                    ? p
                    : nl.add_gate(CellKind::and2,
                                  tag + "_P" + std::to_string(i),
                                  {group_p, p}, module);
    }
    // Skip mux: when every bit propagates, the block's carry-out is just
    // its carry-in — bypass the ripple chain.
    carry = nl.add_gate(CellKind::mux2, tag + "_skip", {c, carry, group_p},
                        module);
  }
  ports.cout = carry;
  if (mark_outputs) {
    for (const NetId s : ports.sum) nl.mark_output(s);
    nl.mark_output(ports.cout);
  }
  return ports;
}

ShifterPorts build_barrel_shifter(Netlist& nl, int width,
                                  const std::string& module, Bus data,
                                  Bus shamt, bool mark_outputs) {
  u::require(width >= 2 && (width & (width - 1)) == 0,
             "barrel: width must be a power of two >= 2");
  int stages = 0;
  while ((1 << stages) < width) ++stages;

  ShifterPorts ports;
  ports.data = ensure_bus(nl, std::move(data), module + "_d", width);
  ports.shamt = ensure_bus(nl, std::move(shamt), module + "_s", stages);

  std::vector<NetId> cur = ports.data;
  const NetId zero = tie0(nl, module + "_fill0");
  for (int k = 0; k < stages; ++k) {
    const int shift = 1 << k;
    std::vector<NetId> next(static_cast<std::size_t>(width));
    for (int j = 0; j < width; ++j) {
      const NetId shifted =
          j >= shift ? cur[static_cast<std::size_t>(j - shift)] : zero;
      next[static_cast<std::size_t>(j)] = nl.add_gate(
          CellKind::mux2,
          module + "_m" + std::to_string(k) + "_" + std::to_string(j),
          {cur[static_cast<std::size_t>(j)], shifted,
           ports.shamt[static_cast<std::size_t>(k)]},
          module);
    }
    cur = std::move(next);
  }
  ports.out = cur;
  if (mark_outputs)
    for (const NetId n : ports.out) nl.mark_output(n);
  return ports;
}

ComparatorPorts build_equality_comparator(Netlist& nl, int width,
                                          const std::string& module, Bus a,
                                          Bus b) {
  u::require(width >= 1, "cmp: width must be >= 1");
  ComparatorPorts ports;
  ports.a = ensure_bus(nl, std::move(a), module + "_a", width);
  ports.b = ensure_bus(nl, std::move(b), module + "_b", width);
  std::vector<NetId> eq;
  for (int i = 0; i < width; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    eq.push_back(nl.add_gate(CellKind::xnor2,
                             module + "_eq" + std::to_string(i),
                             {ports.a[ii], ports.b[ii]}, module));
  }
  // AND reduction tree.
  int round = 0;
  while (eq.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < eq.size(); i += 2)
      next.push_back(nl.add_gate(CellKind::and2,
                                 module + "_and" + std::to_string(round) +
                                     "_" + std::to_string(i / 2),
                                 {eq[i], eq[i + 1]}, module));
    if (eq.size() % 2) next.push_back(eq.back());
    eq = std::move(next);
    ++round;
  }
  ports.equal = eq.front();
  nl.mark_output(ports.equal);
  return ports;
}

RegisterPorts build_register_bank(Netlist& nl, CellKind style, int width,
                                  const std::string& module, Bus d,
                                  bool mark_outputs) {
  u::require(cell_info(style).sequential,
             "register_bank: style must be a sequential cell");
  u::require(width >= 1, "register_bank: width must be >= 1");
  RegisterPorts ports;
  ports.d = ensure_bus(nl, std::move(d), module + "_d", width);
  NetId clk = nl.clock_net();
  if (clk == kInvalidNet) clk = nl.add_clock("clk");
  for (int i = 0; i < width; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    ports.q.push_back(nl.add_gate(style, module + "_ff" + std::to_string(i),
                                  {ports.d[ii], clk}, module));
  }
  if (mark_outputs)
    for (const NetId q : ports.q) nl.mark_output(q);
  return ports;
}

AdderPorts build_kogge_stone_adder(Netlist& nl, int width,
                                   const std::string& module, Bus a, Bus b,
                                   bool mark_outputs) {
  u::require(width >= 1, "ks: width must be >= 1");
  AdderPorts ports;
  ports.a = ensure_bus(nl, std::move(a), module + "_a", width);
  ports.b = ensure_bus(nl, std::move(b), module + "_b", width);
  ports.cin = tie0(nl, module + "_cin0");

  const auto w = static_cast<std::size_t>(width);
  std::vector<NetId> gen(w);
  std::vector<NetId> prop(w);
  for (std::size_t i = 0; i < w; ++i) {
    gen[i] = nl.add_gate(CellKind::and2, module + "_g" + std::to_string(i),
                         {ports.a[i], ports.b[i]}, module);
    prop[i] = nl.add_gate(CellKind::xor2, module + "_p" + std::to_string(i),
                          {ports.a[i], ports.b[i]}, module);
  }
  // Prefix levels: (G, P)_i combines with (G, P)_{i - d}:
  //   G' = G + P * G_lo ;  P' = P * P_lo.
  std::vector<NetId> big_g = gen;
  std::vector<NetId> big_p = prop;
  int level = 0;
  for (int d = 1; d < width; d *= 2, ++level) {
    std::vector<NetId> next_g = big_g;
    std::vector<NetId> next_p = big_p;
    for (int i = d; i < width; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      const auto lo = static_cast<std::size_t>(i - d);
      const std::string tag =
          module + "_l" + std::to_string(level) + "_" + std::to_string(i);
      const NetId pg = nl.add_gate(CellKind::and2, tag + "_pg",
                                   {big_p[ii], big_g[lo]}, module);
      next_g[ii] =
          nl.add_gate(CellKind::or2, tag + "_G", {big_g[ii], pg}, module);
      next_p[ii] = nl.add_gate(CellKind::and2, tag + "_P",
                               {big_p[ii], big_p[lo]}, module);
    }
    big_g = std::move(next_g);
    big_p = std::move(next_p);
  }
  // carry into bit i is the group generate of [0, i-1]; cin is tied 0.
  for (std::size_t i = 0; i < w; ++i) {
    const NetId carry_in = i == 0 ? ports.cin : big_g[i - 1];
    ports.sum.push_back(nl.add_gate(CellKind::xor2,
                                    module + "_s" + std::to_string(i),
                                    {prop[i], carry_in}, module));
  }
  ports.cout = big_g[w - 1];
  if (mark_outputs) {
    for (const NetId s : ports.sum) nl.mark_output(s);
    nl.mark_output(ports.cout);
  }
  return ports;
}

CounterPorts build_gray_counter(Netlist& nl, int width,
                                const std::string& module) {
  u::require(width >= 2, "gray: width must be >= 2");
  NetId clk = nl.clock_net();
  if (clk == kInvalidNet) clk = nl.add_clock("clk");

  // Binary state flops; next state = state + 1 (half-adder chain).
  const auto w = static_cast<std::size_t>(width);
  // Create flop output nets lazily via a two-step: first declare nets for
  // q, then build increment logic, then attach flops onto those nets.
  std::vector<NetId> q(w);
  for (std::size_t i = 0; i < w; ++i)
    q[i] = nl.add_net(module + "_q" + std::to_string(i));

  CounterPorts ports;
  std::vector<NetId> next(w);
  NetId carry = nl.add_gate(CellKind::tie1, module + "_one", {});
  for (std::size_t i = 0; i < w; ++i) {
    next[i] = nl.add_gate(CellKind::xor2, module + "_n" + std::to_string(i),
                          {q[i], carry}, module);
    if (i + 1 < w)
      carry = nl.add_gate(CellKind::and2,
                          module + "_c" + std::to_string(i + 1),
                          {q[i], carry}, module);
  }
  for (std::size_t i = 0; i < w; ++i) {
    nl.add_gate_onto(CellKind::dff, module + "_ff" + std::to_string(i),
                     {next[i], clk}, q[i], module);
    ports.binary.push_back(q[i]);
  }
  // Gray outputs: g_i = b_i ^ b_{i+1}; MSB passes through.
  for (std::size_t i = 0; i + 1 < w; ++i) {
    const NetId g = nl.add_gate(CellKind::xor2,
                                module + "_g" + std::to_string(i),
                                {q[i], q[i + 1]}, module);
    ports.gray.push_back(g);
    nl.mark_output(g);
  }
  ports.gray.push_back(q[w - 1]);
  nl.mark_output(q[w - 1]);
  return ports;
}

Bus build_lfsr(Netlist& nl, int width, const std::vector<int>& taps,
               const std::string& module) {
  u::require(width >= 2, "lfsr: width must be >= 2");
  u::require(!taps.empty(), "lfsr: need at least one tap");
  for (const int t : taps)
    u::require(t >= 0 && t < width, "lfsr: tap out of range");
  NetId clk = nl.clock_net();
  if (clk == kInvalidNet) clk = nl.add_clock("clk");

  const auto w = static_cast<std::size_t>(width);
  std::vector<NetId> q(w);
  for (std::size_t i = 0; i < w; ++i)
    q[i] = nl.add_net(module + "_q" + std::to_string(i));

  // Feedback = XOR of taps.
  NetId feedback = q[static_cast<std::size_t>(taps[0])];
  for (std::size_t k = 1; k < taps.size(); ++k)
    feedback = nl.add_gate(CellKind::xor2,
                           module + "_fb" + std::to_string(k),
                           {feedback, q[static_cast<std::size_t>(taps[k])]},
                           module);

  // Shift: bit 0 takes the feedback, bit i takes q[i-1].
  for (std::size_t i = 0; i < w; ++i) {
    const NetId d = i == 0 ? feedback : q[i - 1];
    nl.add_gate_onto(CellKind::dff, module + "_ff" + std::to_string(i),
                     {d, clk}, q[i], module);
    nl.mark_output(q[i]);
  }
  return q;
}

namespace {

// Ripple magnitude comparator core over (possibly gated) operand buses:
// gt_i = a_i * !b_i + (a_i XNOR b_i) * gt_{i-1}, returning gt_{msb}.
NetId comparator_core(Netlist& nl, const Bus& a, const Bus& b,
                      const std::string& module) {
  NetId gt = nl.add_gate(CellKind::tie0, module + "_gt0", {});
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string tag = module + "_bit" + std::to_string(i);
    const NetId nb = nl.add_gate(CellKind::inv, tag + "_nb", {b[i]}, module);
    const NetId win = nl.add_gate(CellKind::and2, tag + "_win", {a[i], nb},
                                  module);
    const NetId eq = nl.add_gate(CellKind::xnor2, tag + "_eq", {a[i], b[i]},
                                 module);
    const NetId keep = nl.add_gate(CellKind::and2, tag + "_keep", {eq, gt},
                                   module);
    gt = nl.add_gate(CellKind::or2, tag + "_gt", {win, keep}, module);
  }
  return gt;
}

}  // namespace

PrecomputedComparatorPorts build_ripple_comparator(Netlist& nl, int width,
                                                   const std::string& module,
                                                   Bus a, Bus b) {
  u::require(width >= 2, "cmp: width must be >= 2");
  PrecomputedComparatorPorts ports;
  ports.a = ensure_bus(nl, std::move(a), module + "_a", width);
  ports.b = ensure_bus(nl, std::move(b), module + "_b", width);
  ports.gt = comparator_core(nl, ports.a, ports.b, module);
  nl.mark_output(ports.gt);
  return ports;
}

namespace {

// Shared pipeline skeleton for the registered comparators. When
// `gate_low_registers` is true the low-order input flops get their own
// module tag (returned in data_module) so their clock can be gated by the
// precomputed enable; otherwise they share the control tag (always
// clocked).
PrecomputedComparatorPorts build_pipelined_comparator(
    Netlist& nl, int width, const std::string& module, Bus a, Bus b,
    bool gate_low_registers) {
  u::require(width >= 2, "precmp: width must be >= 2");
  PrecomputedComparatorPorts ports;
  ports.a = ensure_bus(nl, std::move(a), module + "_a", width);
  ports.b = ensure_bus(nl, std::move(b), module + "_b", width);
  NetId clk = nl.clock_net();
  if (clk == kInvalidNet) clk = nl.add_clock("clk");

  const auto msb = static_cast<std::size_t>(width - 1);
  const std::string ctl = module + ".ctl";
  ports.data_module = gate_low_registers ? module + ".data" : ctl;

  // Precompute (before the register stage): the MSBs decide unless equal.
  ports.enable = nl.add_gate(CellKind::xnor2, module + "_en",
                             {ports.a[msb], ports.b[msb]}, ctl);

  // Register stage: control flops always clocked (MSBs, enable, msb
  // decision); low-order data flops gateable.
  const NetId r_amsb = nl.add_gate(CellKind::dff, module + "_ra_msb",
                                   {ports.a[msb], clk}, ctl);
  const NetId r_en = nl.add_gate(CellKind::dff, module + "_r_en",
                                 {ports.enable, clk}, ctl);
  Bus ra;
  Bus rb;
  for (std::size_t i = 0; i < msb; ++i) {
    ra.push_back(nl.add_gate(CellKind::dff,
                             module + "_ra" + std::to_string(i),
                             {ports.a[i], clk}, ports.data_module));
    rb.push_back(nl.add_gate(CellKind::dff,
                             module + "_rb" + std::to_string(i),
                             {ports.b[i], clk}, ports.data_module));
  }

  // Second stage: low-order comparator on registered data.
  const NetId gt_low = comparator_core(nl, ra, rb, module + "_low");
  // result = registered_enable ? gt_low : registered a_msb.
  ports.gt = nl.add_gate(CellKind::mux2, module + "_res",
                         {r_amsb, gt_low, r_en}, ctl);
  nl.mark_output(ports.gt);
  return ports;
}

}  // namespace

PrecomputedComparatorPorts build_precomputed_comparator(
    Netlist& nl, int width, const std::string& module, Bus a, Bus b) {
  return build_pipelined_comparator(nl, width, module, std::move(a),
                                    std::move(b), true);
}

PrecomputedComparatorPorts build_registered_comparator(
    Netlist& nl, int width, const std::string& module, Bus a, Bus b) {
  return build_pipelined_comparator(nl, width, module, std::move(a),
                                    std::move(b), false);
}

MacPorts build_pipelined_mac(Netlist& nl, int width,
                             const std::string& module, int guard_bits) {
  u::require(width >= 2 && guard_bits >= 0, "mac: bad width/guard");
  MacPorts ports;
  ports.a = make_input_bus(nl, module + "_a", width);
  ports.b = make_input_bus(nl, module + "_b", width);
  NetId clk = nl.clock_net();
  if (clk == kInvalidNet) clk = nl.add_clock("clk");

  // Stage 1: operand registers.
  const auto reg_a = build_register_bank(nl, CellKind::dff, width,
                                         module + ".in_regs_a", ports.a,
                                         /*mark_outputs=*/false);
  const auto reg_b = build_register_bank(nl, CellKind::dff, width,
                                         module + ".in_regs_b", ports.b,
                                         /*mark_outputs=*/false);

  // Stage 2: multiplier on the registered operands.
  const auto mul = build_array_multiplier(nl, width, module + ".mul",
                                          reg_a.q, reg_b.q,
                                          /*mark_outputs=*/false);

  // Stage 3: accumulator = accumulator + product (registered). The
  // accumulator register outputs feed back into the adder, which is legal
  // because flops break the cycle for the topological sort.
  const int acc_width = 2 * width + guard_bits;
  const NetId zero = tie0(nl, module + "_accz");
  Bus product_ext = mul.product;
  while (static_cast<int>(product_ext.size()) < acc_width)
    product_ext.push_back(zero);

  // Accumulator flop outputs (created first so the adder can consume
  // them; the flops are attached after the adder exists).
  Bus acc_q;
  for (int i = 0; i < acc_width; ++i)
    acc_q.push_back(nl.add_net(module + "_acc" + std::to_string(i)));

  const auto sum = build_ripple_carry_adder(nl, acc_width, module + ".acc",
                                            acc_q, product_ext, kInvalidNet,
                                            /*mark_outputs=*/false);
  for (int i = 0; i < acc_width; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    nl.add_gate_onto(CellKind::dff, module + "_accff" + std::to_string(i),
                     {sum.sum[ii], clk}, acc_q[ii], module + ".acc");
    nl.mark_output(acc_q[ii]);
  }
  ports.accumulator = acc_q;
  return ports;
}

AluPorts build_alu(Netlist& nl, int width, const std::string& module) {
  u::require(width >= 1, "alu: width must be >= 1");
  AluPorts ports;
  ports.a = make_input_bus(nl, module + "_a", width);
  ports.b = make_input_bus(nl, module + "_b", width);
  ports.op = make_input_bus(nl, module + "_op", 2);

  const auto add = build_ripple_carry_adder(nl, width, module + ".add",
                                            ports.a, ports.b, kInvalidNet,
                                            /*mark_outputs=*/false);
  ports.cout = add.cout;

  for (int i = 0; i < width; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    const std::string tag = module + ".logic";
    const NetId andi = nl.add_gate(CellKind::and2,
                                   module + "_and" + std::to_string(i),
                                   {ports.a[ii], ports.b[ii]}, tag);
    const NetId ori = nl.add_gate(CellKind::or2,
                                  module + "_or" + std::to_string(i),
                                  {ports.a[ii], ports.b[ii]}, tag);
    const NetId xori = nl.add_gate(CellKind::xor2,
                                   module + "_xor" + std::to_string(i),
                                   {ports.a[ii], ports.b[ii]}, tag);
    // op: 00 add, 01 and, 10 or, 11 xor.
    const std::string mtag = module + ".mux";
    const NetId lo = nl.add_gate(CellKind::mux2,
                                 module + "_mlo" + std::to_string(i),
                                 {add.sum[ii], andi, ports.op[0]}, mtag);
    const NetId hi = nl.add_gate(CellKind::mux2,
                                 module + "_mhi" + std::to_string(i),
                                 {ori, xori, ports.op[0]}, mtag);
    const NetId res = nl.add_gate(CellKind::mux2,
                                  module + "_res" + std::to_string(i),
                                  {lo, hi, ports.op[1]}, mtag);
    ports.result.push_back(res);
    nl.mark_output(res);
  }
  return ports;
}

}  // namespace lv::circuit
