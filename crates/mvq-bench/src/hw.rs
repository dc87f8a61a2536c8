//! Hardware experiments: Tables 2/7/8/9 and Figures 14-20, all driven by
//! the `mvq-accel` simulator.

use mvq_accel::{
    area_report, comparison_table, roofline_point, simulate_network, tile_resources, workloads,
    ComparatorRow, EnergyModel, HwConfig, HwSetting,
};

use crate::fmt::{f, render_table};

const SIZES: [usize; 3] = [16, 32, 64];

/// Table 2: resource comparison for an H×d tile, EWS vs EWS-Sparse.
pub fn table2() -> String {
    let h = 16;
    let d = 16;
    let q = 4; // 4:16
    let dense = tile_resources(h, d, None);
    let sparse = tile_resources(h, d, Some(q));
    let rows = vec![
        vec![
            "Multiplier".into(),
            format!("{}", dense.multipliers),
            format!("{}", sparse.multipliers),
        ],
        vec!["Adder".into(), format!("{}", dense.adders), format!("{}", sparse.adders)],
        vec!["RF bits".into(), format!("{}", dense.rf_bits), format!("{}", sparse.rf_bits)],
        vec!["LZC".into(), "NA".into(), format!("{}", sparse.lzc)],
        vec!["DEMUX".into(), "NA".into(), format!("{}", sparse.demux)],
        vec!["MUX".into(), "NA".into(), format!("{}", sparse.mux)],
        vec![
            "Parallelism".into(),
            format!("{}", dense.parallelism),
            format!("{}", sparse.parallelism),
        ],
    ];
    let mut out = format!("Table 2 — resources of a {h}x{d} tile (Q = {q}):\n");
    out += &render_table(&["Resource", "EWS", "EWS-Sparse"], &rows);
    out
}

/// Table 7: area comparison on three array scales.
pub fn table7() -> String {
    let paper: &[(&str, [f64; 3])] = &[
        ("WS", [0.188, 0.734, 2.812]),
        ("EWS", [0.36, 1.14, 4.236]),
        ("EWS-C/CM", [0.650, 1.505, 4.776]),
        ("EWS-CMS", [0.469, 0.828, 2.129]),
    ];
    let settings = [HwSetting::Ws, HwSetting::Ews, HwSetting::EwsCm, HwSetting::EwsCms];
    let mut rows = Vec::new();
    for ((label, paper_vals), setting) in paper.iter().zip(settings) {
        let mut row = vec![label.to_string()];
        for (i, &size) in SIZES.iter().enumerate() {
            let a = area_report(&HwConfig::new(setting, size).expect("valid size"))
                .expect("valid config");
            row.push(format!("{:.3} (paper {:.3})", a.array_with_crf_mm2(), paper_vals[i]));
        }
        rows.push(row);
    }
    // memory rows
    let a16 = area_report(&HwConfig::new(HwSetting::Ews, 16).unwrap()).unwrap();
    let a32 = area_report(&HwConfig::new(HwSetting::Ews, 32).unwrap()).unwrap();
    let a64 = area_report(&HwConfig::new(HwSetting::Ews, 64).unwrap()).unwrap();
    rows.push(vec![
        "L1".into(),
        format!("{:.3} (paper 0.484)", a16.l1_mm2),
        format!("{:.3} (paper 0.968)", a32.l1_mm2),
        format!("{:.3} (paper 0.968)", a64.l1_mm2),
    ]);
    rows.push(vec![
        "L2".into(),
        format!("{:.3}", a16.l2_mm2),
        format!("{:.3}", a32.l2_mm2),
        format!("{:.3}", a64.l2_mm2),
    ]);
    rows.push(vec![
        "Others".into(),
        format!("{:.3} (paper 0.787)", a16.others_mm2),
        format!("{:.3} (paper 1.303)", a32.others_mm2),
        format!("{:.3} (paper 1.659)", a64.others_mm2),
    ]);
    let mut out = String::from("Table 7 — area (mm^2) on 3 array scales, modeled vs paper:\n");
    out += &render_table(&["Component", "Size-16", "Size-32", "Size-64"], &rows);
    out
}

/// Table 8: normalized data-access energy costs.
pub fn table8() -> String {
    let em = EnergyModel::paper();
    let rows = vec![vec![
        f(em.dram, 0),
        f(em.l2, 0),
        f(em.l1, 0),
        f(em.prf, 2),
        f(em.arf, 2),
        f(em.wrf, 2),
        f(em.crf, 2),
    ]];
    let mut out = String::from("Table 8 — normalized data-access energy (unit = one 8-bit MAC):\n");
    out += &render_table(&["DRAM", "L2", "L1", "PRF", "ARF", "WRF", "CRF"], &rows);
    out
}

/// Table 9: comparison with other sparse accelerators, 40 nm-normalized.
pub fn table9() -> String {
    let table = comparison_table().expect("simulation configs valid");
    let rows: Vec<Vec<String>> = table
        .iter()
        .map(|r| {
            vec![
                r.name.into(),
                r.venue.into(),
                f(r.process_nm, 0),
                format!("{}", r.macs),
                r.granularity.into(),
                if r.sparsity.is_nan() {
                    "NA".into()
                } else {
                    format!("{:.0}%", r.sparsity * 100.0)
                },
                if r.compression_ratio.is_nan() {
                    "NA".into()
                } else {
                    format!("{:.1}x", r.compression_ratio)
                },
                r.workload.into(),
                f(r.peak_tops, 2),
                f(r.area_mm2, 2),
                f(r.tops_per_watt, 2),
                f(r.normalized_tops_per_watt, 2),
            ]
        })
        .collect();
    let mut out = String::from(
        "Table 9 — comparison with prior sparse accelerators (N-Eff = 40nm-normalized TOPS/W;\n\
         prior-work rows as reported by the paper, MVQ rows simulated):\n",
    );
    out += &render_table(
        &[
            "Design",
            "Venue",
            "nm",
            "MACs",
            "Granularity",
            "Sparsity",
            "CR",
            "Workload",
            "Peak TOPS",
            "Area mm2",
            "TOPS/W",
            "N-Eff",
        ],
        &rows,
    );
    // MVQ-64's lead over the best prior design on each efficiency basis;
    // the paper's 1.73x is stated against raw (native-node) TOPS/W, so it
    // is quoted on that line only
    let mvq64 = table.iter().find(|r| r.name == "MVQ-64").expect("row exists");
    let lead = |eff: fn(&ComparatorRow) -> f64| {
        let prior = table.iter().filter(|r| r.venue != "ours");
        let best = prior.max_by(|a, b| eff(a).total_cmp(&eff(b))).expect("prior rows exist");
        format!("({} {:.2}): {:.2}x", best.name, eff(best), eff(mvq64) / eff(best))
    };
    let normalized = lead(|r| r.normalized_tops_per_watt);
    out += &format!("\nMVQ-64 vs best prior on 40nm-normalized TOPS/W {normalized}\n");
    let raw = lead(|r| r.tops_per_watt);
    out += &format!("MVQ-64 vs best prior on raw TOPS/W {raw} (paper: 1.73x on the same basis)\n");
    out
}

/// Fig. 14: data-access cost ratio per memory level.
pub fn fig14() -> String {
    let mut rows = Vec::new();
    for net in workloads::all_networks() {
        let r = simulate_network(&HwConfig::new(HwSetting::Ews, 32).expect("valid"), &net);
        let [dram, l2, l1, rf] = r.data_access_levels();
        let total = dram + l2 + l1 + rf;
        rows.push(vec![
            net.name.into(),
            format!("{:.1}%", dram / total * 100.0),
            format!("{:.1}%", l2 / total * 100.0),
            format!("{:.1}%", l1 / total * 100.0),
            format!("{:.1}%", rf / total * 100.0),
        ]);
    }
    let mut out = String::from(
        "Fig. 14 — data-access cost ratio by memory level (EWS 32x32; paper: DRAM dominates):\n",
    );
    out += &render_table(&["Model", "DRAM", "L2", "L1", "RF"], &rows);
    out
}

/// Fig. 15: data-access cost reduction from MVQ compression.
pub fn fig15() -> String {
    let paper: &[(&str, [f64; 3])] = &[
        ("ResNet18", [2.9, 3.6, 4.1]),
        ("ResNet50", [2.7, 3.2, 3.4]),
        ("VGG16", [1.7, 2.4, 1.9]),
        ("MobileNet", [1.9, 2.0, 1.9]),
        ("AlexNet", [1.9, 2.3, 3.0]),
    ];
    let mut rows = Vec::new();
    for net in workloads::all_networks() {
        let mut row = vec![net.name.to_string()];
        let paper_vals = paper.iter().find(|(n, _)| *n == net.name).map(|(_, v)| v);
        for (i, &size) in SIZES.iter().enumerate() {
            let base = simulate_network(&HwConfig::new(HwSetting::Ews, size).expect("valid"), &net)
                .data_access_cost();
            let cms =
                simulate_network(&HwConfig::new(HwSetting::EwsCms, size).expect("valid"), &net)
                    .data_access_cost();
            let p = paper_vals.map(|v| format!(" (paper {:.1})", v[i])).unwrap_or_default();
            row.push(format!("{:.1}x{p}", base / cms));
        }
        rows.push(row);
    }
    let mut out =
        String::from("Fig. 15 — data-access cost reduction, EWS vs EWS-CMS (modeled vs paper):\n");
    out += &render_table(&["Model", "16x16", "32x32", "64x64"], &rows);
    out
}

/// Fig. 16: power breakdown for ResNet-18/50 across settings and sizes.
pub fn fig16() -> String {
    let mut out = String::from("Fig. 16 — power breakdown (mW) per setting:\n");
    for net in [workloads::resnet18(), workloads::resnet50()] {
        for &size in SIZES.iter().rev() {
            let mut rows = Vec::new();
            for setting in HwSetting::ALL {
                let r = simulate_network(&HwConfig::new(setting, size).expect("valid"), &net);
                let (accel, l1, l2, other) = r.power_breakdown_mw(size);
                rows.push(vec![
                    setting.name().into(),
                    f(accel, 1),
                    f(l1, 1),
                    f(l2, 1),
                    f(other, 1),
                    f(accel + l1 + l2 + other, 1),
                ]);
            }
            out += &format!("\n{} {size}x{size}:\n", net.name);
            out += &render_table(&["Setting", "Accel", "L1", "L2", "Other", "Total"], &rows);
        }
    }
    out
}

/// Fig. 17: speedup over the WS baseline at 64×64.
pub fn fig17() -> String {
    let paper: &[(&str, [f64; 3])] = &[
        ("ResNet18", [1.4, 1.2, 2.2]),
        ("ResNet50", [1.2, 1.3, 1.9]),
        ("VGG16", [1.2, 1.3, 1.9]),
        ("MobileNet", [1.1, 1.3, 1.5]),
        ("AlexNet", [1.1, 1.4, 1.7]),
    ];
    let mut rows = Vec::new();
    for net in workloads::all_networks() {
        let ws = simulate_network(&HwConfig::new(HwSetting::Ws, 64).expect("valid"), &net).cycles;
        let mut row = vec![net.name.to_string()];
        let paper_vals = paper.iter().find(|(n, _)| *n == net.name).map(|(_, v)| v);
        for (i, s) in [HwSetting::WsCms, HwSetting::Ews, HwSetting::EwsCms].iter().enumerate() {
            let c = simulate_network(&HwConfig::new(*s, 64).expect("valid"), &net).cycles;
            let p = paper_vals.map(|v| format!(" (paper {:.1})", v[i])).unwrap_or_default();
            row.push(format!("{:.2}x{p}", ws / c));
        }
        rows.push(row);
    }
    let mut out = String::from("Fig. 17 — speedup over WS baseline at 64x64 (modeled vs paper):\n");
    out += &render_table(&["Model", "WS-CMS", "EWS", "EWS-CMS"], &rows);
    out
}

/// Fig. 18: roofline points for EWS vs EWS-CMS at the three sizes.
pub fn fig18() -> String {
    let mut rows = Vec::new();
    for net in [workloads::resnet18(), workloads::resnet50()] {
        for setting in [HwSetting::Ews, HwSetting::EwsCms] {
            for &size in &SIZES {
                let p = roofline_point(&HwConfig::new(setting, size).expect("valid"), &net);
                rows.push(vec![
                    net.name.into(),
                    p.label.clone(),
                    f(p.ops_per_byte, 0),
                    f(p.gops, 0),
                    f(p.peak_gops, 0),
                    if p.is_bandwidth_bound() { "weight-load".into() } else { "compute".into() },
                ]);
            }
        }
    }
    let mut out = String::from(
        "Fig. 18 — roofline (OI = effective ops per weight-load byte; paper: arrays >= 32x32\n\
         are weight-load bound until MVQ lifts the intensity):\n",
    );
    out +=
        &render_table(&["Model", "Config", "OI (ops/B)", "GOPS", "Peak GOPS", "Bound by"], &rows);
    out
}

/// Fig. 19: energy efficiency for ResNet-18/50 across settings and sizes.
pub fn fig19() -> String {
    let paper_rn18: &[(&str, [f64; 3])] = &[
        ("WS", [0.7, 1.5, 2.1]),
        ("WS-CMS", [0.9, 2.1, 4.5]),
        ("EWS", [1.5, 2.2, 2.9]),
        ("EWS-C", [1.8, 2.6, 3.8]),
        ("EWS-CM", [1.9, 3.0, 4.3]),
        ("EWS-CMS", [2.3, 4.1, 6.9]),
    ];
    let paper_rn50: &[(&str, [f64; 3])] = &[
        ("WS", [0.9, 1.4, 1.9]),
        ("WS-CMS", [1.1, 2.1, 3.2]),
        ("EWS", [1.8, 2.3, 2.6]),
        ("EWS-C", [1.8, 2.7, 3.4]),
        ("EWS-CM", [1.9, 3.1, 4.0]),
        ("EWS-CMS", [2.4, 4.1, 5.7]),
    ];
    let mut out = String::from("Fig. 19 — energy efficiency in TOPS/W (modeled vs paper):\n");
    for (net, paper) in [(workloads::resnet18(), paper_rn18), (workloads::resnet50(), paper_rn50)] {
        let mut rows = Vec::new();
        for setting in HwSetting::ALL {
            let paper_vals = paper.iter().find(|(n, _)| *n == setting.name()).map(|(_, v)| v);
            let mut row = vec![setting.name().to_string()];
            for (i, &size) in SIZES.iter().enumerate() {
                let r = simulate_network(&HwConfig::new(setting, size).expect("valid"), &net);
                let p = paper_vals.map(|v| format!(" (paper {:.1})", v[i])).unwrap_or_default();
                row.push(format!("{:.2}{p}", r.tops_per_watt()));
            }
            rows.push(row);
        }
        out += &format!("\n{}:\n", net.name);
        out += &render_table(&["Setting", "16x16", "32x32", "64x64"], &rows);
    }
    out
}

/// Fig. 20: efficiency gain over the WS baseline for VGG-16, AlexNet and
/// MobileNet (pointwise convolutions only).
pub fn fig20() -> String {
    let nets = [
        ("VGG16", workloads::vgg16()),
        ("AlexNet", workloads::alexnet()),
        ("MobileNet*", workloads::mobilenet_v1().pointwise_only()),
    ];
    let mut out = String::from(
        "Fig. 20 — efficiency gain vs WS baseline (* = pointwise convs only, as the paper):\n",
    );
    for (label, net) in nets {
        let mut rows = Vec::new();
        for setting in [HwSetting::WsCms, HwSetting::Ews, HwSetting::EwsCms] {
            let mut row = vec![setting.name().to_string()];
            for &size in &SIZES {
                let ws =
                    simulate_network(&HwConfig::new(HwSetting::Ws, size).expect("valid"), &net)
                        .tops_per_watt();
                let r = simulate_network(&HwConfig::new(setting, size).expect("valid"), &net)
                    .tops_per_watt();
                row.push(format!("{:.2}x", r / ws));
            }
            rows.push(row);
        }
        out += &format!("\n{label}:\n");
        out += &render_table(&["Setting", "16x16", "32x32", "64x64"], &rows);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_mentions_lzc() {
        let t = table2();
        assert!(t.contains("LZC"));
        assert!(t.contains("64"));
    }

    #[test]
    fn table7_has_all_settings() {
        let t = table7();
        for s in ["WS", "EWS", "EWS-CMS", "L1", "L2", "Others"] {
            assert!(t.contains(s), "missing {s}");
        }
    }

    #[test]
    fn table8_matches_energy_model() {
        let t = table8();
        assert!(t.contains("200"));
        assert!(t.contains("0.02"));
    }

    #[test]
    fn table9_contains_all_designs() {
        let t = table9();
        for d in ["SparTen", "CGNet", "SPOTS", "S2TA-16", "MVQ-16", "MVQ-64"] {
            assert!(t.contains(d), "missing {d}");
        }
    }

    #[test]
    fn table9_quotes_the_paper_only_on_its_own_basis() {
        let t = table9();
        let rows = comparison_table().unwrap();
        let raw = |name: &str| rows.iter().find(|r| r.name == name).unwrap().tops_per_watt;
        // the paper's figure sits on exactly one line: the raw-basis one,
        // whose modeled ratio divides raw efficiencies
        let quoting: Vec<&str> = t.lines().filter(|l| l.contains("paper: 1.73x")).collect();
        let ratio = raw("MVQ-64") / raw("S2TA-16");
        let expected = format!("on raw TOPS/W (S2TA-16 14.00): {ratio:.2}x (paper: 1.73x");
        assert_eq!(quoting.len(), 1, "{t}");
        assert!(quoting[0].contains(&expected), "{} lacks {expected}", quoting[0]);
    }

    #[test]
    fn fig14_rows_for_five_nets() {
        let t = fig14();
        for n in ["ResNet18", "ResNet50", "VGG16", "MobileNet", "AlexNet"] {
            assert!(t.contains(n), "missing {n}");
        }
    }

    #[test]
    fn fig17_and_19_render() {
        assert!(fig17().contains("EWS-CMS"));
        assert!(fig19().contains("paper"));
    }

    #[test]
    fn fig18_shows_bandwidth_bound_dense_64() {
        let t = fig18();
        assert!(t.contains("EWS-64"));
        assert!(t.contains("weight-load"));
    }

    #[test]
    fn fig20_has_pointwise_note() {
        assert!(fig20().contains("pointwise"));
    }
}
