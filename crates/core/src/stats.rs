//! [`phase_stats!`] declares a phase's stats and histogram structs from one
//! table pairing each field with its [`names`](tricluster_obs::names)
//! constant, and writes `absorb`/`publish` once over that table.

/// Declares `$stats` (public `u64` counters plus an optional boxed
/// `$hists`) and `$hists` (public `Histogram` fields). `publish` emits
/// every counter, zeros included, in table order, then the histograms when
/// collected: the run report, `--trace` and the daemon's pinned exposition
/// depend on that order.
macro_rules! phase_stats {
    (
        $(#[$stats_meta:meta])*
        pub struct $stats:ident {
            $( $(#[$counter_meta:meta])* $counter:ident => $counter_name:path, )*
        }
        $(#[$hists_meta:meta])*
        pub struct $hists:ident {
            $( $(#[$hist_meta:meta])* $hist:ident => $hist_name:path, )*
        }
    ) => {
        $(#[$hists_meta])*
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct $hists {
            $( $(#[$hist_meta])* pub $hist: tricluster_obs::Histogram, )*
        }

        $(#[$stats_meta])*
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct $stats {
            $( $(#[$counter_meta])* pub $counter: u64, )*
            /// Value distributions; `None` unless requested, so the default
            /// path never pays for bucket arithmetic.
            pub hists: Option<Box<$hists>>,
        }

        impl $stats {
            /// Accumulates `other` into `self`.
            pub fn absorb(&mut self, other: &$stats) {
                $( self.$counter += other.$counter; )*
                if let Some(o) = &other.hists {
                    let h = self.hists.get_or_insert_with(Box::default);
                    $( h.$hist.merge(&o.$hist); )*
                }
            }

            /// Mirrors the stats into counter increments (and histograms,
            /// when collected) on `sink`.
            pub fn publish(&self, sink: &dyn tricluster_obs::EventSink) {
                $( sink.counter($counter_name, self.$counter); )*
                if let Some(h) = &self.hists {
                    $( sink.histogram($hist_name, &h.$hist); )*
                }
            }
        }
    };
}
