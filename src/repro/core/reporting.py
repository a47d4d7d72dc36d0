"""Rendering: the paper's tables and figures as text, plus architecture
descriptions (Figures 1-3 and 5 as ASCII art)."""

from repro.paperdata import PLATFORM_ORDER, TABLE2, TABLE3, TABLE5, FIGURE4


def _rule(widths):
    return "+".join("-" * width for width in widths)


def render_table(headers, rows, title=""):
    """Plain-text table with right-aligned numeric columns."""
    widths = [len(str(header)) for header in headers]
    formatted = []
    for row in rows:
        cells = [str(cell) for cell in row]
        widths = [max(width, len(cell)) for width, cell in zip(widths, cells)]
        formatted.append(cells)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for cells in formatted:
        lines.append(
            " | ".join(
                cell.rjust(w) if _numeric(cell) else cell.ljust(w)
                for cell, w in zip(cells, widths)
            )
        )
    return "\n".join(lines)


def _numeric(cell):
    return cell.replace(".", "").replace(",", "").replace("-", "").replace("%", "").replace("+", "").isdigit()


def render_table2(measured):
    """measured: {key: {benchmark: cycles}} -> side-by-side with paper,
    one column group per measured key (``n/a`` where the paper has no
    column for the key)."""
    headers = ["Microbenchmark"]
    for key in measured:
        headers += ["%s sim" % key, "paper", "err%"]
    rows = []
    for name in TABLE2:
        row = [name]
        for key, column in measured.items():
            sim = column[name]
            paper = TABLE2[name].get(key)
            if paper is None:
                row += ["%d" % sim, "n/a", "-"]
            else:
                row += ["%d" % sim, "%d" % paper, "%+.1f" % ((sim - paper) / paper * 100)]
        rows.append(row)
    return render_table(headers, rows, title="Table II: Microbenchmark Measurements (cycle counts)")


def render_table3(breakdown):
    headers = ["Register State", "Save", "(paper)", "Restore", "(paper)"]
    rows = []
    for entry in breakdown.rows:
        paper = TABLE3[entry.register_state]
        rows.append(
            [
                entry.register_state,
                "%d" % entry.save_cycles,
                "%d" % paper["save"],
                "%d" % entry.restore_cycles,
                "%d" % paper["restore"],
            ]
        )
    rows.append(["(other: traps/dispatch)", "%d" % breakdown.other_cycles, "-", "", ""])
    return render_table(headers, rows, title="Table III: KVM ARM Hypercall Analysis (cycle counts)")


def render_table5(results):
    headers = ["", "Native", "KVM", "Xen", "paper N/K/X"]
    native_time = results["native"].time_per_trans_us
    order = [
        ("Trans/s", "%.0f"),
        ("Time/trans", "%.1f"),
        ("Overhead", "%.1f"),
        ("send to recv", "%.1f"),
        ("recv to send", "%.1f"),
        ("recv to VM recv", "%.1f"),
        ("VM recv to VM send", "%.1f"),
        ("VM send to send", "%.1f"),
    ]
    rows = []
    for name, fmt in order:
        row = [name]
        for config in ("native", "kvm", "xen"):
            if name == "Overhead":
                value = (
                    None
                    if config == "native"
                    else results[config].time_per_trans_us - native_time
                )
            else:
                value = results[config].as_dict()[name]
            row.append(fmt % value if value else "-")
        paper = TABLE5[name]
        row.append(
            "/".join(
                str(paper[config]) if paper[config] is not None else "-"
                for config in ("native", "kvm", "xen")
            )
        )
        rows.append(row)
    return render_table(headers, rows, title="Table V: Netperf TCP_RR Analysis on ARM (us)")


def render_figure4(grid, keys=None):
    keys = keys or PLATFORM_ORDER
    headers = ["Workload"] + ["%s (paper)" % key for key in keys]
    rows = []
    for workload, row in grid.items():
        cells = [workload]
        for key in keys:
            result = row.get(key)
            paper_point = FIGURE4.get(workload, {}).get(key)
            paper = "%.2f" % paper_point.value if paper_point else "n/a"
            cells.append("%.2f (%s)" % (result.normalized, paper) if result else "-")
        rows.append(cells)
    return render_table(
        headers, rows, title="Figure 4: Application Benchmark Performance (normalized, 1.0 = native)"
    )


def render_ablation(results):
    """results: {(key, workload): AblationPoint} -> Section V table."""
    headers = ["Workload", "Platform", "Single-VCPU IRQs", "Distributed", "Drop (pts)"]
    rows = [
        [
            point.workload,
            point.key,
            "%.1f%%" % point.single_overhead_pct,
            "%.1f%%" % point.distributed_overhead_pct,
            "%.1f" % point.improvement_pct,
        ]
        for point in results.values()
    ]
    return render_table(
        headers, rows, title="Section V ablation: virtual interrupt distribution"
    )


def render_vhe(comparison):
    """comparison: VheComparison -> the two Section VI tables."""
    headers = ["Microbenchmark", "split-mode", "VHE", "speedup"]
    rows = [
        [name, "%d" % split, "%d" % vhe, "%.1fx" % speedup]
        for name, (split, vhe, speedup) in comparison.microbench.items()
    ]
    micro = render_table(
        headers, rows, title="Section VI: KVM ARM with VHE (microbenchmarks, cycles)"
    )
    headers = ["Workload", "split-mode", "VHE", "improvement (pts)"]
    rows = [
        [name, "%.2f" % split, "%.2f" % vhe, "%.1f" % pts]
        for name, (split, vhe, pts) in comparison.applications.items()
    ]
    apps = render_table(
        headers, rows, title="Section VI: application overhead, split-mode vs VHE"
    )
    return micro + "\n\n" + apps


#: Figures 1-3 and 5 rendered as architecture descriptions.
ARCHITECTURE_FIGURES = {
    "figure1": """\
Figure 1: Hypervisor Design
    Native            Type 1                Type 2
  +---------+      +----------+        +--------------+
  | App App |      |  VM  VM  |        | VM  VM | App |
  +---------+      +----------+        +--------------+
  | Kernel  |      |Hypervisor|        | Host OS + HV |
  +---------+      +----------+        +--------------+
  |   HW    |      |    HW    |        |      HW      |
  +---------+      +----------+        +--------------+""",
    "figure2": """\
Figure 2: Xen ARM Architecture
  EL0 |  Dom0 userspace        |  VM userspace
  EL1 |  Dom0 kernel (backend) |  VM kernel (frontend)
      |        ^~~~~ Xen PV I/O + grant copies ~~~~^
  EL2 |  Xen hypervisor: scheduler, vGIC, timers""",
    "figure3": """\
Figure 3: KVM ARM Architecture (split mode, pre-VHE)
  EL0 |  Host userspace (QEMU)  |  VM userspace
  EL1 |  Host kernel + KVM      |  VM kernel (virtio drivers)
      |      ^~~~ Virtio I/O (vhost, zero copy) ~~~^
  EL2 |  KVM lowvisor: world switch trampoline only""",
    "figure5": """\
Figure 5: Virtualization Host Extensions (VHE)
  Type 1 (E2H clear)            Type 2 (E2H set)
  EL0: apps / VM user           EL0: apps / VM user  --(syscalls & traps
  EL1: VM kernel                EL1: VM kernel          go straight to EL2)
  EL2: Xen hypervisor           EL2: Host kernel + KVM, unmodified""",
}


def describe_architecture(name):
    return ARCHITECTURE_FIGURES[name]
